// Property tests of the one-shard engine on randomly generated
// netlists, checked against an independent reference interpreter.
//
// The reference evaluates the same netlist with a naive fixpoint solver
// (recompute every block until nothing changes — no HBR bits, no
// scheduling) each cycle. For any netlist whose combinational parts
// settle, the engine's dynamic schedule must produce identical link
// values and block states every cycle, regardless of evaluation order.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/example_blocks.h"
#include "core/sharded_simulator.h"

namespace tmsim::core {
namespace {

using examples::CombAdderBlock;
using examples::PipeBlock;
using examples::RegAdderBlock;

constexpr std::size_t kWidth = 16;

/// A randomly wired netlist: N blocks of mixed kinds, each with one input
/// and one output link; links are combinational or registered at random.
/// Acyclic *combinational* structure is guaranteed by only allowing a
/// combinational link from block i to block j when i < j (registered
/// links may go anywhere, including backwards — cycles through registers
/// are fine).
struct RandomNetlist {
  SystemModel model;
  std::vector<BlockId> blocks;
  std::vector<LinkId> links;              // output link of block i
  std::vector<int> sources;               // input source block (or -1)
  std::vector<LinkKind> kinds;            // kind of block i's *input* link
  std::vector<std::uint64_t> addends;     // block i's addend
  std::vector<int> block_kind;            // 0 comb, 1 pipe, 2 reg-adder
  std::vector<std::uint64_t> resets;
  LinkId external_in = 0;

  explicit RandomNetlist(std::uint64_t seed, std::size_t n) {
    SplitMix64 rng(seed);
    // Choose block kinds and parameters.
    for (std::size_t i = 0; i < n; ++i) {
      block_kind.push_back(static_cast<int>(rng.next_below(3)));
      addends.push_back(rng.next_below(1000));
      resets.push_back(rng.next_below(1u << kWidth));
      std::shared_ptr<SimBlock> blk;
      switch (block_kind[i]) {
        case 0:
          blk = std::make_shared<CombAdderBlock>(kWidth, addends[i]);
          break;
        case 1:
          blk = std::make_shared<PipeBlock>(kWidth, addends[i], resets[i]);
          break;
        default:
          blk = std::make_shared<RegAdderBlock>(kWidth, addends[i]);
          break;
      }
      blocks.push_back(model.add_block(blk, "b" + std::to_string(i)));
    }
    // Output links: block i drives link i; a comb-output block's link may
    // only feed later blocks (acyclic comb core); a registered link may
    // feed anyone. CombAdder and Pipe blocks have comb outputs; RegAdder
    // drives a registered link.
    external_in =
        model.add_link("ext_in", kWidth, LinkKind::kCombinational);
    for (std::size_t i = 0; i < n; ++i) {
      const LinkKind kind = block_kind[i] == 2 ? LinkKind::kRegistered
                                               : LinkKind::kCombinational;
      links.push_back(model.add_link("l" + std::to_string(i), kWidth, kind));
      model.bind_output(blocks[i], 0, links[i]);
    }
    // Input wiring: block 0 reads the external input; block j > 0 reads
    // either a registered link (any block) or a combinational link of an
    // earlier block that is still unclaimed (single reader).
    std::vector<bool> comb_claimed(n, false);
    model.bind_input(blocks[0], 0, external_in);
    sources.assign(n, -1);
    kinds.assign(n, LinkKind::kCombinational);
    for (std::size_t j = 1; j < n; ++j) {
      // Candidate sources.
      std::vector<std::size_t> cands;
      for (std::size_t i = 0; i < n; ++i) {
        const bool registered = block_kind[i] == 2;
        if (registered || (i < j && !comb_claimed[i])) {
          cands.push_back(i);
        }
      }
      const std::size_t src = cands[rng.next_below(cands.size())];
      if (block_kind[src] != 2) {
        comb_claimed[src] = true;
      }
      sources[j] = static_cast<int>(src);
      kinds[j] = block_kind[src] == 2 ? LinkKind::kRegistered
                                      : LinkKind::kCombinational;
      model.bind_input(blocks[j], 0, links[src]);
    }
    model.finalize();
  }
};

/// Reference interpreter: plain maps, fixpoint per cycle.
struct Reference {
  explicit Reference(const RandomNetlist& net) : net_(net) {
    const std::size_t n = net.blocks.size();
    state.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (net.block_kind[i] == 1) {
        state[i] = net.resets[i];
      }
    }
    link_now.assign(n, 0);   // value a reader sees this cycle
    reg_q.assign(n, 0);      // committed register value (registered links)
  }

  std::uint64_t input_of(std::size_t j, std::uint64_t ext) const {
    if (j == 0) {
      return ext;
    }
    const std::size_t src = static_cast<std::size_t>(net_.sources[j]);
    return net_.kinds[j] == LinkKind::kRegistered ? reg_q[src]
                                                  : link_now[src];
  }

  void step(std::uint64_t ext) {
    const std::size_t n = net_.blocks.size();
    const std::uint64_t mask = (1ull << kWidth) - 1;
    // Fixpoint over combinational outputs (inputs from current values).
    for (int iter = 0; iter < 64; ++iter) {
      bool changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t out;
        if (net_.block_kind[i] == 0) {  // comb adder
          out = (input_of(i, ext) + net_.addends[i]) & mask;
        } else if (net_.block_kind[i] == 1) {  // pipe: G = state + addend
          out = (state[i] + net_.addends[i]) & mask;
        } else {  // registered adder drives D; not part of comb fixpoint
          continue;
        }
        if (link_now[i] != out) {
          link_now[i] = out;
          changed = true;
        }
      }
      if (!changed) {
        break;
      }
      ASSERT_LT(iter, 63) << "reference did not settle";
    }
    // Clock edge: pipes latch inputs, registered links latch D.
    std::vector<std::uint64_t> nstate = state;
    std::vector<std::uint64_t> nreg = reg_q;
    for (std::size_t i = 0; i < n; ++i) {
      if (net_.block_kind[i] == 1) {
        nstate[i] = input_of(i, ext);
      } else if (net_.block_kind[i] == 2) {
        nreg[i] = (input_of(i, ext) + net_.addends[i]) & mask;
      }
    }
    state = nstate;
    reg_q = nreg;
  }

  const RandomNetlist& net_;
  std::vector<std::uint64_t> state;
  std::vector<std::uint64_t> link_now;
  std::vector<std::uint64_t> reg_q;
};

class RandomNetlistProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomNetlistProperty, DynamicScheduleMatchesFixpointReference) {
  const std::uint64_t seed = GetParam();
  SplitMix64 stimuli_rng(seed ^ 0xabcdef);
  RandomNetlist net(seed, 12);
  ShardedSimulator sim(net.model, {});
  Reference ref(net);

  for (int cycle = 0; cycle < 60; ++cycle) {
    const std::uint64_t ext = stimuli_rng.next_below(1u << kWidth);
    sim.set_external_input(net.external_in, make_bit_vector(kWidth, ext));
    sim.step();
    ref.step(ext);
    for (std::size_t i = 0; i < net.blocks.size(); ++i) {
      // Link values as seen by a reader right now.
      const std::uint64_t got = sim.link_value(net.links[i]).get_field(0, kWidth);
      const std::uint64_t want = net.block_kind[i] == 2 ? ref.reg_q[i]
                                                        : ref.link_now[i];
      ASSERT_EQ(got, want) << "cycle " << cycle << " link " << i << " seed "
                           << seed;
      if (net.block_kind[i] == 1) {
        ASSERT_EQ(sim.block_state(net.blocks[i]).get_field(0, kWidth),
                  ref.state[i])
            << "cycle " << cycle << " block " << i << " seed " << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(RandomNetlistProperty, DeltaCyclesBoundedByEvalLimit) {
  // Every random netlist must settle well below the safety cap: the comb
  // core is acyclic by construction, so the worst case is one
  // re-evaluation per topological level.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    RandomNetlist net(seed, 12);
    ShardedSimulator sim(net.model, {});
    for (int cycle = 0; cycle < 20; ++cycle) {
      const StepStats st = sim.step();
      ASSERT_LE(st.delta_cycles, 12u * 12u) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace tmsim::core
