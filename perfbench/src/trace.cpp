#include "trace.h"

#include <set>
#include <span>

#include "calibrate.h"
#include "noc/router_state.h"

namespace perfbench {

using tmsim::BitVector;
using tmsim::SystemCycle;

void TimedNoc::set_local_input(std::size_t r,
                               const tmsim::noc::LinkForward& f) {
  timed(port_ns_, [&] { inner_.set_local_input(r, f); });
}

void TimedNoc::step() {
  timed(step_ns_, [&] { inner_.step(); });
}

tmsim::noc::LinkForward TimedNoc::local_output(std::size_t r) const {
  return timed(port_ns_, [&] { return inner_.local_output(r); });
}

tmsim::noc::CreditWires TimedNoc::local_input_credits(std::size_t r) const {
  return timed(port_ns_, [&] { return inner_.local_input_credits(r); });
}

SystemCycle TimedNoc::cycle() const {
  return timed(port_ns_, [&] { return inner_.cycle(); });
}

void EngineCounters::on_cycle_commit(const tmsim::core::Engine& eng,
                                     const tmsim::core::StepStats& stats) {
  ++cycles;
  delta_cycles += stats.delta_cycles;
  re_evaluations += stats.re_evaluations;
  skipped_blocks += stats.skipped_blocks;
  link_changes += stats.link_changes;
  settle_rounds += stats.settle_rounds;
  cut_publishes += stats.cut_publishes;

  const tmsim::core::SystemModel& model = eng.model();
  const SystemCycle now = eng.cycle();
  // Second half of a capture: the cycle whose old states were taken at
  // the previous commit has settled; record its inputs and new states.
  if (!pending_.empty()) {
    for (CapturedEval& ev : pending_) {
      const auto& links = model.block(ev.block).input_links;
      ev.inputs.reserve(links.size());
      for (const tmsim::core::LinkId l : links) {
        ev.inputs.push_back(eng.link_value(l));
      }
      ev.new_state = eng.block_state(ev.block);
      captured_.push_back(std::move(ev));
    }
    pending_.clear();
  }
  while (next_sample_ < samples_.size() && samples_[next_sample_] < now) {
    ++next_sample_;
  }
  if (next_sample_ < samples_.size() && samples_[next_sample_] == now) {
    ++next_sample_;
    pending_.resize(model.num_blocks());
    for (tmsim::core::BlockId b = 0; b < model.num_blocks(); ++b) {
      pending_[b].block = b;
      pending_[b].old_state = eng.block_state(b);
    }
  }
}

void EngineCounters::on_superstep(std::size_t shard, std::uint64_t,
                                  std::uint64_t settle, std::uint64_t barrier) {
  if (shard < kMaxShards) {
    settle_ns[shard].fetch_add(settle, std::memory_order_relaxed);
    barrier_ns[shard].fetch_add(barrier, std::memory_order_relaxed);
  }
}

std::vector<SystemCycle> sample_cycles(std::uint64_t seed, SystemCycle first,
                                       SystemCycle last, std::size_t count) {
  std::set<SystemCycle> picked;
  if (last > first) {
    count = std::min<std::size_t>(count, last - first);
    std::uint64_t state = seed;
    while (picked.size() < count) {
      state = mix_seed(state, 7);
      picked.insert(first + state % (last - first));
    }
  }
  return {picked.begin(), picked.end()};
}

ReplayEstimate replay_router_eval(const tmsim::core::SystemModel& model,
                                  const tmsim::noc::NetworkConfig& net,
                                  const std::vector<CapturedEval>& captured,
                                  std::size_t reps) {
  ReplayEstimate est;
  est.evals = captured.size();
  if (captured.empty()) {
    return est;
  }
  // Output buffers sized per port, reused across evaluations like the
  // engines' own scratch.
  const tmsim::core::SimBlock& proto = *model.block(0).logic;
  std::vector<BitVector> outputs;
  for (std::size_t p = 0; p < proto.num_outputs(); ++p) {
    outputs.emplace_back(proto.output_width(p));
  }
  BitVector next(proto.state_width());

  // Correctness of the capture first: F(old, settled inputs) must be the
  // state the engine committed.
  for (const CapturedEval& ev : captured) {
    model.block(ev.block).logic->evaluate(ev.old_state, ev.inputs, next,
                                          outputs);
    if (next != ev.new_state) {
      est.reproduced = false;
    }
  }

  std::vector<double> eval_passes;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (const CapturedEval& ev : captured) {
      model.block(ev.block).logic->evaluate(ev.old_state, ev.inputs, next,
                                            outputs);
    }
    const double wall = static_cast<double>(now_ns() - t0);
    eval_passes.push_back(wall * speed_factor(calibration_slice_ns()));
  }

  const tmsim::noc::RouterStateCodec codec(net.router);
  tmsim::noc::RouterState decoded = codec.deserialize(captured[0].old_state);
  BitVector word(codec.state_bits());
  std::vector<double> codec_passes;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (const CapturedEval& ev : captured) {
      codec.deserialize_into(ev.old_state, decoded);
      codec.serialize_into(decoded, word);
    }
    const double wall = static_cast<double>(now_ns() - t0);
    codec_passes.push_back(wall * speed_factor(calibration_slice_ns()));
  }
  const double n = static_cast<double>(captured.size());
  est.eval_ns = median(eval_passes) / n;
  est.codec_ns = median(codec_passes) / n;
  return est;
}

}  // namespace perfbench
