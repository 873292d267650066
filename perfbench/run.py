#!/usr/bin/env python3
"""Builds and runs the tmsim performance benchmark for one workload.

Run from the root of a tmsim checkout:

    python3 perfbench/run.py --workload paper-6x6 --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later runs only re-check the build. The benchmark binary's
stamp and detail records are passed through, and its result record is
checked against BENCHMARK.json before it is printed as the last line:
every end-to-end metric (--trace 0) or per-layer metric (--trace 1) must
be present with its declared unit. Per-layer metrics a workload does not
exercise are reported as 0.

Exit codes: 0 correct run, 1 a correctness check failed (the result is
still printed), 2 build or set-up error, 3 malformed benchmark output.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        die(2, f"tmsim sources not found under {ROOT}/src; run from a checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            die(2, f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "tmsim_perfbench")


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("TMSIM_GIT_SHA", "unknown")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def complete(result, trace):
    """Checks the result against BENCHMARK.json and fills unexercised layers."""
    want = declared_metrics(trace)
    got = result["metrics"]
    for name, m in got.items():
        if name not in want:
            die(3, f"metric {name} is not declared in BENCHMARK.json")
        if m["unit"] != want[name]:
            die(3, f"metric {name} has unit {m['unit']}, declared {want[name]}")
    missing = [n for n in want if n not in got]
    if missing and not trace and result["correct"]:
        die(3, f"end-to-end metrics missing: {', '.join(missing)}")
    result["metrics"] = {n: got.get(n, {"value": 0, "unit": u}) for n, u in want.items()}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smoke mode: shorter windows, smaller farm sweep")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: corrupt the reference so the gate must fail")
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    env = dict(os.environ, TMSIM_GIT_SHA=git_sha())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(2, f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die(2, f"benchmark binary exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(3, "benchmark binary did not end with a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(3, "result record has unexpected keys")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(complete(result, args.trace)), flush=True)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
