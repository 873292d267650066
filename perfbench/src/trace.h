// Outside-in instrumentation for the traced run. Nothing here touches
// the simulator's internals: every number comes from timing calls into
// the public APIs of `noc`, `core` and `traffic`.
//
//  - TimedNoc: a forwarding noc::NocSimulation decorator that the
//    TrafficHarness drives instead of the engine. It splits one cycle's
//    wall time into core.step (NocSimulation::step), core.port (the
//    local-port calls) and traffic.self (everything between those calls,
//    i.e. the harness's own generate/inject/retrieve work).
//  - EngineCounters: a core::SimObserver summing the StepStats counts
//    and the sharded engine's per-superstep settle/barrier times; at a
//    seeded sample of cycles it also captures each block's old state and
//    settled input links for the replay below.
//  - replay_router_eval: re-evaluates the captured blocks through
//    SimBlock::evaluate and RouterStateCodec to estimate noc.* costs
//    (a labelled estimate: warm caches, no scheduler around it; each
//    timed pass is rescaled to reference time like everything else).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "noc/network.h"

namespace perfbench {

class TimedNoc : public tmsim::noc::NocSimulation {
 public:
  explicit TimedNoc(tmsim::noc::NocSimulation& inner) : inner_(inner) {}

  const tmsim::noc::NetworkConfig& config() const override {
    return inner_.config();
  }
  void set_local_input(std::size_t r,
                       const tmsim::noc::LinkForward& f) override;
  void step() override;
  tmsim::noc::LinkForward local_output(std::size_t r) const override;
  tmsim::noc::CreditWires local_input_credits(std::size_t r) const override;
  tmsim::BitVector router_state_word(std::size_t r) const override {
    return inner_.router_state_word(r);
  }
  tmsim::SystemCycle cycle() const override;

  /// Brackets one harness call: time outside step/port calls between
  /// begin() and end() is billed to the harness (traffic.self).
  void begin() { last_exit_ns_ = now_ns(); }
  void end() { self_ns_ += now_ns() - last_exit_ns_; }

  std::uint64_t step_ns() const { return step_ns_; }
  std::uint64_t port_ns() const { return port_ns_; }
  std::uint64_t self_ns() const { return self_ns_; }

 private:
  /// Bills the gap since the last call to self time, runs `f`, and
  /// bills its duration to `acc`.
  template <typename F>
  auto timed(std::uint64_t& acc, F&& f) const {
    const std::uint64_t t0 = now_ns();
    self_ns_ += t0 - last_exit_ns_;
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      last_exit_ns_ = now_ns();
      acc += last_exit_ns_ - t0;
    } else {
      auto r = f();
      last_exit_ns_ = now_ns();
      acc += last_exit_ns_ - t0;
      return r;
    }
  }

  tmsim::noc::NocSimulation& inner_;
  mutable std::uint64_t last_exit_ns_ = 0;
  mutable std::uint64_t self_ns_ = 0;
  mutable std::uint64_t step_ns_ = 0;
  mutable std::uint64_t port_ns_ = 0;
};

/// One captured block evaluation: the committed state the engine read
/// and the settled input values of that cycle, plus the state the engine
/// committed (the replay must reproduce it bit for bit).
struct CapturedEval {
  tmsim::core::BlockId block = 0;
  tmsim::BitVector old_state;
  std::vector<tmsim::BitVector> inputs;
  tmsim::BitVector new_state;
};

class EngineCounters : public tmsim::core::SimObserver {
 public:
  static constexpr std::size_t kMaxShards = 16;

  /// `sample_cycles`: engine cycle counts c at which the step taking the
  /// engine from c to c + 1 is captured for replay (sorted ascending).
  explicit EngineCounters(std::vector<tmsim::SystemCycle> sample_cycles)
      : samples_(std::move(sample_cycles)) {}

  void on_cycle_commit(const tmsim::core::Engine& eng,
                       const tmsim::core::StepStats& stats) override;
  void on_superstep(std::size_t shard, std::uint64_t superstep,
                    std::uint64_t settle_ns,
                    std::uint64_t barrier_ns) override;

  std::uint64_t cycles = 0;
  std::uint64_t delta_cycles = 0;
  std::uint64_t re_evaluations = 0;
  std::uint64_t skipped_blocks = 0;
  std::uint64_t link_changes = 0;
  std::uint64_t settle_rounds = 0;
  std::uint64_t cut_publishes = 0;
  std::array<std::atomic<std::uint64_t>, kMaxShards> settle_ns{};
  std::array<std::atomic<std::uint64_t>, kMaxShards> barrier_ns{};

  const std::vector<CapturedEval>& captured() const { return captured_; }

 private:
  std::vector<tmsim::SystemCycle> samples_;
  std::size_t next_sample_ = 0;
  std::vector<CapturedEval> pending_;  // old states of the cycle in flight
  std::vector<CapturedEval> captured_;
};

/// Seeded sample of `count` distinct cycles in [first, last).
std::vector<tmsim::SystemCycle> sample_cycles(std::uint64_t seed,
                                              tmsim::SystemCycle first,
                                              tmsim::SystemCycle last,
                                              std::size_t count);

struct ReplayEstimate {
  double eval_ns = 0.0;   ///< one RouterBlock::evaluate, codec included
  double codec_ns = 0.0;  ///< deserialize_into + serialize_into of one word
  std::size_t evals = 0;  ///< captured evaluations replayed
  bool reproduced = true; ///< every replay matched the committed state
};

/// Times SimBlock::evaluate and the router state codec on the captured
/// evaluations (each repeated `reps` times; the median pass counts), in
/// reference ns.
ReplayEstimate replay_router_eval(const tmsim::core::SystemModel& model,
                                  const tmsim::noc::NetworkConfig& net,
                                  const std::vector<CapturedEval>& captured,
                                  std::size_t reps);

}  // namespace perfbench
