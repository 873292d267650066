// Shared vocabulary of the tmsim performance benchmark: the run
// configuration the CLI parses, the result record every workload fills,
// and small timing/statistics helpers.
//
// Every timing is host time: steady_clock wall time, rescaled to reference
// time by the host-speed calibration of calibrate.h. Modeled FPGA clocks
// are not this program's business; bench/table3_cps reports them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// SplitMix64 finalizer: derives independent sub-seeds from the CLI seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t domain) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (domain + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke mode: shorter windows and a smaller farm sweep.
  bool quick = false;
  /// Self-test hook: flips one bit of the reference before comparing, so
  /// the bit-identity gate must report a failure.
  bool corrupt_reference = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `details` are extra key/number pairs
/// printed on the diagnostic record (sample counts, accounting sums).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> details;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void detail(std::string key, double value) {
    details.emplace_back(std::move(key), value);
  }
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// The three engine workloads (paper-6x6, sparse-12x12,
/// busy-12x12-sharded); false when `name` is not one of them.
bool is_engine_workload(const std::string& name);
RunResult run_engine_workload(const RunConfig& cfg);

/// The farm-sweep workload.
RunResult run_farm_workload(const RunConfig& cfg);

}  // namespace perfbench
