// Heterogeneous SoC example — §7.1: "Heterogeneous systems can be
// supported as well, as long as the required extra combinatorial logic
// fits in the FPGA. [...] The registers can be mapped in the same memory
// space."
//
// A small producer/accelerator/checker pipeline with *mixed* boundary
// kinds, simulated sequentially by the dynamic engine:
//
//   [producer] --registered--> [dsp] --combinational--> [checker]
//        ^                                                  |
//        +---------------- combinational feedback ----------+
//
//   - producer: emits a sample counter value each cycle (its output is a
//     pipeline register);
//   - dsp: a 3-tap moving-sum accelerator whose output is unregistered
//     combinational logic over its shift registers — the §4.2 case;
//   - checker: compares against its own reference model and raises a
//     combinational error flag the producer observes the same cycle.
//
// Three different block types, three different state widths, one state
// memory — the heterogeneous layout of Fig. 2b. The engine's HBR
// machinery handles the combinational half, the double-banked links the
// registered half, in the same system cycle.
//
//   $ ./examples/heterogeneous_soc
#include <cstdio>
#include <memory>

#include "core/sharded_simulator.h"

namespace {

using namespace tmsim;
using namespace tmsim::core;

/// Emits t, t+3, t+6, ... while the error flag is low; freezes when the
/// checker flags a mismatch (same-cycle combinational reaction).
class Producer : public SimBlock {
 public:
  std::size_t state_width() const override { return 16; }
  std::size_t num_inputs() const override { return 1; }   // error flag
  std::size_t input_width(std::size_t) const override { return 1; }
  std::size_t num_outputs() const override { return 1; }  // sample (reg)
  std::size_t output_width(std::size_t) const override { return 16; }
  BitVector reset_state() const override { return BitVector(16); }

  void evaluate(const BitVector& old_state, std::span<const BitVector> in,
                BitVector& new_state,
                std::span<BitVector> out) const override {
    const std::uint64_t t = old_state.get_field(0, 16);
    const bool error = in[0].get_field(0, 1) != 0;
    out[0].set_field(0, 16, t);  // drives the pipeline register's D input
    new_state.set_field(0, 16, error ? t : ((t + 3) & 0xffff));
  }
  std::string type_name() const override { return "producer"; }
};

/// 3-tap moving sum with a combinational output over its shift register.
class MovingSumDsp : public SimBlock {
 public:
  std::size_t state_width() const override { return 3 * 16; }
  std::size_t num_inputs() const override { return 1; }
  std::size_t input_width(std::size_t) const override { return 16; }
  std::size_t num_outputs() const override { return 1; }
  std::size_t output_width(std::size_t) const override { return 18; }
  BitVector reset_state() const override { return BitVector(48); }

  void evaluate(const BitVector& old_state, std::span<const BitVector> in,
                BitVector& new_state,
                std::span<BitVector> out) const override {
    const std::uint64_t s0 = old_state.get_field(0, 16);
    const std::uint64_t s1 = old_state.get_field(16, 16);
    const std::uint64_t s2 = old_state.get_field(32, 16);
    // G: combinational sum of the registered taps (state-only → the
    // dynamic schedule settles in ≤ 2 evaluations per block).
    out[0].set_field(0, 18, (s0 + s1 + s2) & 0x3ffff);
    // F: shift in the new sample.
    new_state.set_field(0, 16, in[0].get_field(0, 16));
    new_state.set_field(16, 16, s0);
    new_state.set_field(32, 16, s1);
  }
  std::string type_name() const override { return "moving_sum_dsp"; }
};

/// Recomputes the expected moving sum and flags divergence
/// combinationally; counts good samples in its state.
class Checker : public SimBlock {
 public:
  std::size_t state_width() const override { return 48 + 32; }
  std::size_t num_inputs() const override { return 2; }  // dsp out, sample
  std::size_t input_width(std::size_t p) const override {
    return p == 0 ? 18 : 16;
  }
  std::size_t num_outputs() const override { return 1; }  // error flag
  std::size_t output_width(std::size_t) const override { return 1; }
  BitVector reset_state() const override { return BitVector(80); }

  void evaluate(const BitVector& old_state, std::span<const BitVector> in,
                BitVector& new_state,
                std::span<BitVector> out) const override {
    const std::uint64_t r0 = old_state.get_field(0, 16);
    const std::uint64_t r1 = old_state.get_field(16, 16);
    const std::uint64_t r2 = old_state.get_field(32, 16);
    const std::uint64_t good = old_state.get_field(48, 32);
    const std::uint64_t dsp = in[0].get_field(0, 18);
    const std::uint64_t expect = (r0 + r1 + r2) & 0x3ffff;
    const bool mismatch = dsp != expect;
    out[0].set_field(0, 1, mismatch ? 1 : 0);
    new_state.set_field(0, 16, in[1].get_field(0, 16));
    new_state.set_field(16, 16, r0);
    new_state.set_field(32, 16, r1);
    new_state.set_field(48, 32, mismatch ? good : (good + 1) & 0xffffffff);
  }
  std::string type_name() const override { return "checker"; }
};

}  // namespace

int main() {
  SystemModel m;
  const BlockId producer = m.add_block(std::make_shared<Producer>(), "cpu");
  const BlockId dsp = m.add_block(std::make_shared<MovingSumDsp>(), "dsp");
  const BlockId checker = m.add_block(std::make_shared<Checker>(), "chk");

  // Registered pipeline stage between producer and DSP; the checker taps
  // the same register (registered links allow fan-out).
  const LinkId sample = m.add_link("sample", 16, LinkKind::kRegistered);
  m.bind_output(producer, 0, sample);
  m.bind_input(dsp, 0, sample);
  m.bind_input(checker, 1, sample);
  // Unbuffered wires: DSP result and the error flag (combinational
  // boundaries — the §4.2 machinery).
  const LinkId dsp_out = m.add_link("dsp_out", 18, LinkKind::kCombinational);
  m.bind_output(dsp, 0, dsp_out);
  m.bind_input(checker, 0, dsp_out);
  const LinkId error = m.add_link("error", 1, LinkKind::kCombinational);
  m.bind_output(checker, 0, error);
  m.bind_input(producer, 0, error);
  m.finalize();

  ShardedSimulator sim(m, {});
  DeltaCycle deltas = 0;
  for (int t = 0; t < 200; ++t) {
    deltas += sim.step().delta_cycles;
  }

  const std::uint64_t produced = sim.block_state(producer).get_field(0, 16);
  const std::uint64_t good = sim.block_state(checker).get_field(48, 32);
  const bool error_flag = sim.link_value(error).get_field(0, 1) != 0;
  std::printf("heterogeneous SoC: 3 block types in one state memory\n");
  std::printf("  state widths      : producer 16, dsp 48, checker 80 bits\n");
  std::printf("  after 200 cycles  : producer at %llu, %llu samples "
              "verified, error=%d\n",
              (unsigned long long)produced, (unsigned long long)good,
              error_flag ? 1 : 0);
  std::printf("  delta cycles      : %llu total (%.2f per cycle; min 3)\n",
              (unsigned long long)deltas, deltas / 200.0);
  if (error_flag || good < 190) {
    std::printf("  FAILED: checker flagged a divergence\n");
    return 1;
  }
  std::printf("  checker and DSP agreed every cycle — the mixed\n"
              "  registered/combinational system simulates correctly.\n");
  return 0;
}
