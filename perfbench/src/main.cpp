// tmsim_perfbench: runs one benchmark workload and prints its records.
//
//   tmsim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--quick] [--corrupt-reference]
//
// Standard output, one JSON object per line:
//   {"record": "stamp", ...}   git SHA, nproc, compiler, build type, seed,
//                              quick flag, workload, trace flag
//   {"record": "detail", ...}  the stamp again plus sample counts,
//                              accounting sums and any errors
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "obs/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives fork+exec, so it would
  // report the launching process's peak whenever that one was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

namespace {

using tmsim::obs::json_escape;

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string stamp_fields(const RunConfig& cfg) {
  const char* sha = std::getenv("TMSIM_GIT_SHA");
  std::string s;
  s += "\"git_sha\": \"" + json_escape(sha != nullptr && *sha ? sha : "unknown") + "\"";
  s += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"compiler\": \"" + json_escape(std::string("gcc-compatible ") + __VERSION__) + "\"";
  s += ", \"build_type\": \"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  s += ", \"seed\": " + std::to_string(cfg.seed);
  s += ", \"quick\": " + std::string(cfg.quick ? "true" : "false");
  s += ", \"workload\": \"" + json_escape(cfg.workload) + "\"";
  s += ", \"trace\": " + std::string(cfg.trace ? "1" : "0");
  return s;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tmsim_perfbench: %s\nusage: tmsim_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--quick] "
               "[--corrupt-reference]\n",
               why);
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(("missing value for " + a).c_str());
      }
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = value() == "1";
    } else if (a == "--quick") {
      cfg.quick = true;
    } else if (a == "--corrupt-reference") {
      cfg.corrupt_reference = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (cfg.workload.empty()) {
    usage("--workload is required");
  }
  if (!(cfg.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return cfg;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunConfig cfg = parse(argc, argv);
  RunResult res;
  if (is_engine_workload(cfg.workload)) {
    res = run_engine_workload(cfg);
  } else if (cfg.workload == "farm-sweep") {
    res = run_farm_workload(cfg);
  } else {
    usage(("unknown workload " + cfg.workload).c_str());
  }

  const std::string stamp = stamp_fields(cfg);
  std::printf("{\"record\": \"stamp\", %s}\n", stamp.c_str());
  std::string detail = "{\"record\": \"detail\", " + stamp;
  for (const auto& [k, v] : res.details) {
    detail += ", \"" + json_escape(k) + "\": " + num(v);
  }
  detail += ", \"errors\": [";
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    detail += (i ? ", \"" : "\"") + json_escape(res.errors[i]) + "\"";
  }
  std::printf("%s]}\n", detail.c_str());

  std::string metrics;
  for (const Metric& m : res.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") +
               json_escape(m.name) + "\": {\"value\": " + num(m.value) +
               ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "tmsim_perfbench: FAIL: %s\n", e.c_str());
  }
  return res.correct ? 0 : 1;
}
