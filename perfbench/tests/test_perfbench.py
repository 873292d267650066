#!/usr/bin/env python3
"""Self-tests of the tmsim performance benchmark.

Run from anywhere (the first run builds the benchmark, about a minute):

    python3 -m unittest discover -s perfbench/tests -v

They smoke-run every workload in quick mode (untraced and traced), check
that a deliberately corrupted reference is reported as a failure, check
that BENCHMARK.json is well formed and every metric name matches
[A-Za-z0-9_.-]+, and check that the benchmark refuses to run without
the simulator's sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace=0, extra=(), seconds=1, cwd=ROOT, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace), "--quick", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, env=env)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSpecTest(unittest.TestCase):
    def test_metric_and_workload_names(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME_RE)
            self.assertTrue(NAME_RE.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_end_to_end_bounds(self):
        spec = load_spec()
        by_name = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(by_name["setup_s"]["unit"], "s")
        self.assertEqual(by_name["setup_s"]["better"], "lower")
        others = [m["bound"] for m in spec["end_to_end"] if m["name"] != "setup_s"]
        self.assertGreater(by_name["setup_s"]["bound"], max(others))
        for m in spec["end_to_end"]:
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        for w in spec["workloads"]:
            self.assertTrue(w["why"] and "\n" not in w["why"])


class WorkloadSmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = last_json(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        spec = load_spec()
        declared = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        stamp = json.loads(proc.stdout.strip().splitlines()[0])
        for key in ("git_sha", "nproc", "compiler", "build_type", "seed", "quick"):
            self.assertIn(key, stamp)
        return res

    def test_every_workload_untraced(self):
        for w in load_spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                res = self.check_run(w["name"], 0)
                self.assertEqual(res["metrics"]["ok_frac"]["value"], 1)

    def test_every_workload_traced(self):
        for w in load_spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                res = self.check_run(w["name"], 1)
                self.assertIn("trace_overhead_pct", res["metrics"])


class GateTest(unittest.TestCase):
    def test_corrupted_reference_is_a_failure(self):
        for workload in ("paper-6x6", "farm-sweep"):
            with self.subTest(workload=workload):
                proc = run_bench(workload, extra=["--corrupt-reference"])
                self.assertNotEqual(proc.returncode, 0)
                res = last_json(proc)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertLess(res["metrics"]["ok_frac"]["value"], 1)

    def test_unknown_workload_prints_no_result(self):
        proc = run_bench("no-such-workload")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")

    def test_refuses_to_run_without_sources(self):
        build = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
        os.makedirs(build, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper-6x6",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
