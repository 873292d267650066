// Host-speed calibration.
//
// The benchmark runs on shared machines whose per-core speed drifts by
// up to 2× over seconds to minutes (a busy neighbour on the same physical
// core, shared caches, clock changes). A wall-clock rate measured in one
// such phase says as much about the neighbours as about tmsim. To keep
// the figures comparable across runs, every timed slice of the benchmark
// is followed by a short, fixed calibration slice, and the slice's time
// is rescaled to *reference seconds*:
//
//     reference_time = wall_time × kReferenceSliceNs / calibration_slice_ns
//
// i.e. the time the same work would have taken had the calibration slice
// run at its reference speed. The calibration kernel is frozen benchmark
// code (it never changes with the simulator), so a faster simulator still
// shows as a higher rate; only the host's momentary speed cancels. The
// kernel is a synthetic bit-field codec: it packs and unpacks a wide
// state word through a few hundred narrow fields and applies small
// branchy updates — the same mix of shifts, masks, short loops and
// nested vectors that dominates the simulator's hot path, so that both
// slow down alike when the host core is contended.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

/// Nominal duration of one calibration slice on an uncontended core of
/// the reference host (a 4-vCPU Intel Xeon VM). Any constant would do:
/// it only fixes the scale of "reference seconds".
inline constexpr double kReferenceSliceNs = 1.0e6;

/// Runs one calibration slice and returns its duration in ns: wall time,
/// or with `thread_cpu` the calling thread's CPU time (which excludes
/// time the thread waited for a CPU it shares with other threads).
/// Thread-safe (each thread keeps its own kernel state).
std::uint64_t calibration_slice_ns(bool thread_cpu = false);

/// A calibration slice shaped like a multi-shard engine step: this thread
/// and one helper pinned to each CPU in `others` run the slice's kernel
/// rounds in 8 steps, meeting at a spin-then-sleep barrier after each,
/// so the slice also pays the wake-up latency of the CPUs the shards
/// wait on. Returns this thread's wall time (helper start-up excluded).
std::uint64_t barrier_slice_ns(const std::vector<int>& others);

/// Host-speed factor of a slice: multiply a wall time by it to obtain
/// reference time (> 1 when the host ran faster than the reference).
inline double speed_factor(std::uint64_t slice_ns) {
  return kReferenceSliceNs / static_cast<double>(slice_ns);
}

/// Reference-time duration of one call of `f`: its wall time rescaled by
/// the speed factor of a calibration slice run right after it.
template <typename F>
double reference_seconds(F&& f) {
  const std::uint64_t t0 = now_ns();
  f();
  const std::uint64_t wall = now_ns() - t0;
  return ns_to_s(wall) * speed_factor(calibration_slice_ns());
}

/// The first `n` CPUs this process may run on, or none when it may not
/// run on more than `n` (then nothing is pinned).
std::vector<int> first_cpus(std::size_t n);

/// Confines the calling thread — and every thread it creates meanwhile —
/// to `cpus` (no-op when empty); restores the old mask on destruction.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const std::vector<int>& cpus);
  ~ScopedAffinity();
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  std::vector<int> saved_;
};

/// Calibration for multi-threaded workloads, whose work cannot be
/// interleaved with slices. Their worker threads are confined to `cpus`
/// (ScopedAffinity), and a monitor thread visits each of those CPUs every
/// 50 ms and runs a slice there, timed in thread CPU time so
/// that sharing the CPU with a worker does not count. Wall intervals are
/// converted to reference time with the mean factor of the slices inside
/// them. With no CPUs given the monitor runs wherever it is scheduled.
class SpeedMonitor {
 public:
  explicit SpeedMonitor(std::vector<int> cpus);
  ~SpeedMonitor();
  SpeedMonitor(const SpeedMonitor&) = delete;
  SpeedMonitor& operator=(const SpeedMonitor&) = delete;

  /// Stops sampling (idempotent); call before querying.
  void stop();

  /// Reference seconds of the wall interval [from_ns, to_ns].
  double reference_seconds(std::uint64_t from_ns, std::uint64_t to_ns) const;

  /// Median speed factor over the whole run.
  double median_factor() const;

 private:
  std::vector<int> cpus_;
  std::atomic<bool> running_{true};
  std::vector<std::pair<std::uint64_t, double>> samples_;  // end ns, factor
  std::thread thread_;
};

}  // namespace perfbench
