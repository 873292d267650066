#include "calibrate.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>

#include "common.h"

namespace perfbench {
namespace {

/// A synthetic wide register word: `kQueues` queues of `kSlots` flit
/// slots plus per-queue pointers and flags, laid out back to back like a
/// serialized router state.
class SyntheticCodec {
 public:
  static constexpr std::size_t kQueues = 20;
  static constexpr std::size_t kSlots = 4;
  static constexpr std::size_t kFlitBits = 21;

  SyntheticCodec() {
    std::size_t offset = 0;
    auto field = [&](std::size_t width) {
      fields_.push_back({offset, width});
      offset += width;
    };
    for (std::size_t q = 0; q < kQueues; ++q) {
      for (std::size_t s = 0; s < kSlots; ++s) {
        field(kFlitBits);
      }
      field(2);  // read pointer
      field(2);  // write pointer
      field(1);  // full
      field(3);  // credits
    }
    words_.assign((offset + 63) / 64 + 1, 0x9e3779b97f4a7c15ull);
    slots_.assign(kQueues, std::vector<std::uint32_t>(kSlots, 0));
    regs_.assign(kQueues, std::vector<std::uint32_t>(4, 0));
  }

  /// Unpack, update, repack once; returns a value depending on all of it.
  std::uint64_t round(std::uint64_t salt) {
    std::size_t f = 0;
    for (std::size_t q = 0; q < kQueues; ++q) {
      for (std::size_t s = 0; s < kSlots; ++s) {
        slots_[q][s] = static_cast<std::uint32_t>(get(fields_[f++]));
      }
      for (std::size_t r = 0; r < 4; ++r) {
        regs_[q][r] = static_cast<std::uint32_t>(get(fields_[f++]));
      }
    }
    std::uint64_t acc = salt;
    for (std::size_t q = 0; q < kQueues; ++q) {
      auto& reg = regs_[q];
      const std::uint32_t head = slots_[q][reg[0] % kSlots];
      if ((head ^ static_cast<std::uint32_t>(acc)) & 1u) {
        reg[0] = (reg[0] + 1) & 3u;
        reg[3] = reg[3] > 0 ? reg[3] - 1 : 4;
      } else if (reg[2] == 0) {
        slots_[q][reg[1] % kSlots] = static_cast<std::uint32_t>(acc >> 7);
        reg[1] = (reg[1] + 1) & 3u;
        reg[2] = reg[1] == reg[0];
      }
      acc = acc * 0x100000001b3ull ^ head ^ reg[3];
    }
    f = 0;
    for (std::size_t q = 0; q < kQueues; ++q) {
      for (std::size_t s = 0; s < kSlots; ++s) {
        set(fields_[f++], slots_[q][s]);
      }
      for (std::size_t r = 0; r < 4; ++r) {
        set(fields_[f++], regs_[q][r]);
      }
    }
    return acc;
  }

 private:
  struct Field {
    std::size_t offset;
    std::size_t width;
  };

  std::uint64_t get(const Field& fd) const {
    const std::size_t w = fd.offset / 64;
    const std::size_t b = fd.offset % 64;
    std::uint64_t v = words_[w] >> b;
    if (b + fd.width > 64) {
      v |= words_[w + 1] << (64 - b);
    }
    return v & ((1ull << fd.width) - 1);
  }

  void set(const Field& fd, std::uint64_t value) {
    const std::size_t w = fd.offset / 64;
    const std::size_t b = fd.offset % 64;
    const std::uint64_t mask = (1ull << fd.width) - 1;
    value &= mask;
    words_[w] = (words_[w] & ~(mask << b)) | (value << b);
    if (b + fd.width > 64) {
      const std::size_t hi = 64 - b;
      words_[w + 1] = (words_[w + 1] & ~(mask >> hi)) | (value >> hi);
    }
  }

  std::vector<Field> fields_;
  std::vector<std::uint64_t> words_;
  std::vector<std::vector<std::uint32_t>> slots_;
  std::vector<std::vector<std::uint32_t>> regs_;
};

/// Rounds per slice: about 1 ms on the reference host.
constexpr int kRoundsPerSlice = 1000;

std::atomic<std::uint64_t> g_sink{0};

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) {
    CPU_SET(c, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::vector<int> current_affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

}  // namespace

std::uint64_t calibration_slice_ns(bool thread_cpu) {
  thread_local SyntheticCodec codec;
  thread_local std::uint64_t salt = 1;
  const std::uint64_t t0 = thread_cpu ? thread_cpu_ns() : now_ns();
  for (int i = 0; i < kRoundsPerSlice; ++i) {
    salt = codec.round(salt);
  }
  const std::uint64_t elapsed = (thread_cpu ? thread_cpu_ns() : now_ns()) - t0;
  g_sink.fetch_xor(salt, std::memory_order_relaxed);
  return elapsed;
}

std::uint64_t barrier_slice_ns(const std::vector<int>& others) {
  constexpr int kSteps = 8;
  const int parties = static_cast<int>(others.size()) + 1;
  std::atomic<int> ready{0};
  std::atomic<int> arrived{0};
  std::atomic<std::uint32_t> generation{0};
  // Spin briefly, then sleep until the last arrival bumps the generation.
  auto barrier = [&] {
    const std::uint32_t gen = generation.load(std::memory_order_acquire);
    if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == parties) {
      arrived.store(0, std::memory_order_relaxed);
      generation.fetch_add(1, std::memory_order_acq_rel);
      generation.notify_all();
      return;
    }
    for (int i = 0; i < 128; ++i) {
      if (generation.load(std::memory_order_acquire) != gen) {
        return;
      }
    }
    std::this_thread::yield();
    while (generation.load(std::memory_order_acquire) == gen) {
      generation.wait(gen, std::memory_order_acquire);
    }
  };
  auto work = [&] {
    thread_local SyntheticCodec codec;
    thread_local std::uint64_t salt = 1;
    ready.fetch_add(1);
    while (ready.load() < parties) {
    }
    for (int step = 0; step < kSteps; ++step) {
      for (int i = 0; i < kRoundsPerSlice / kSteps; ++i) {
        salt = codec.round(salt);
      }
      barrier();
    }
    g_sink.fetch_xor(salt, std::memory_order_relaxed);
  };
  std::vector<std::thread> helpers;
  for (const int cpu : others) {
    helpers.emplace_back([&, cpu] {
      set_affinity({cpu});
      work();
    });
  }
  while (ready.load() < parties - 1) {
  }
  const std::uint64_t t0 = now_ns();
  work();
  const std::uint64_t elapsed = now_ns() - t0;
  for (std::thread& t : helpers) {
    t.join();
  }
  return elapsed;
}

std::vector<int> first_cpus(std::size_t n) {
  std::vector<int> cpus = current_affinity();
  if (cpus.size() <= n) {
    return {};
  }
  cpus.resize(n);
  return cpus;
}

ScopedAffinity::ScopedAffinity(const std::vector<int>& cpus) {
  if (!cpus.empty()) {
    saved_ = current_affinity();
    set_affinity(cpus);
  }
}

ScopedAffinity::~ScopedAffinity() {
  if (!saved_.empty()) {
    set_affinity(saved_);
  }
}

SpeedMonitor::SpeedMonitor(std::vector<int> cpus)
    : cpus_(std::move(cpus)), thread_([this] {
        while (running_.load(std::memory_order_relaxed)) {
          if (cpus_.empty()) {
            samples_.emplace_back(now_ns(),
                                  speed_factor(calibration_slice_ns(true)));
          }
          for (const int c : cpus_) {
            set_affinity({c});
            samples_.emplace_back(now_ns(),
                                  speed_factor(calibration_slice_ns(true)));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }) {}

SpeedMonitor::~SpeedMonitor() { stop(); }

void SpeedMonitor::stop() {
  running_.store(false);
  if (thread_.joinable()) {
    thread_.join();
  }
}

double SpeedMonitor::reference_seconds(std::uint64_t from_ns,
                                       std::uint64_t to_ns) const {
  if (samples_.empty() || to_ns <= from_ns) {
    return ns_to_s(to_ns > from_ns ? to_ns - from_ns : 0);
  }
  const auto lo = std::lower_bound(
      samples_.begin(), samples_.end(), std::make_pair(from_ns, 0.0));
  auto hi = std::upper_bound(samples_.begin(), samples_.end(),
                             std::make_pair(to_ns, 1e300));
  double sum = 0.0;
  std::size_t n = 0;
  for (auto it = lo; it != hi; ++it, ++n) {
    sum += it->second;
  }
  if (n == 0) {  // shorter than one sampling period: nearest sample
    sum = (lo != samples_.end() ? *lo : samples_.back()).second;
    n = 1;
  }
  return ns_to_s(to_ns - from_ns) * sum / static_cast<double>(n);
}

double SpeedMonitor::median_factor() const {
  std::vector<double> f;
  for (const auto& s : samples_) {
    f.push_back(s.second);
  }
  return median(std::move(f));
}

}  // namespace perfbench
