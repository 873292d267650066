// Differential proof that SchedulerKind::kCompiled honours the engine
// contract on the topologies the static schedule treats specially:
//
//  * a true combinational cycle (an OR latch), where the compiled
//    schedule runs its scoped kSettle fallback — one shard — and its
//    per-shard Jacobi supersteps when a partition cuts the cycle;
//  * a non-settling cycle (a NOT self-loop), where compiled must fail
//    with the same structured ConvergenceError as the reference
//    scheduler.
//
// kWorklist is an alias of kCompiled, so it must accept both shapes and
// behave exactly like kCompiled.
//
// OR is monotone and every settled cycle ends with the latch halves
// equal, so the per-cycle fixed point is evaluation-order independent:
// every engine/scheduler pair must produce bit-identical link values and
// block states, cycle by cycle.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/example_blocks.h"
#include "core/sharded_simulator.h"
#include "core/system_model.h"

namespace tmsim::core {
namespace {

using examples::CombAdderBlock;
using examples::NotBlock;
using examples::Or2Block;
using examples::PipeBlock;
using examples::Xor2Block;

BitVector val(std::size_t width, std::uint64_t v) {
  BitVector bv(width);
  bv.set_field(0, width, v);
  return bv;
}

/// Two Or2 blocks latched head-to-tail (a true combinational SCC), each
/// seeded through a PipeBlock from an external input, with a CombAdder
/// hanging off the latch so the settled value must also flow onward.
struct OrLatchModel {
  OrLatchModel() {
    p0 = model.add_block(std::make_shared<PipeBlock>(16, 0), "p0");
    p1 = model.add_block(std::make_shared<PipeBlock>(16, 0), "p1");
    a = model.add_block(std::make_shared<Or2Block>(16), "a");
    b = model.add_block(std::make_shared<Or2Block>(16), "b");
    c = model.add_block(std::make_shared<CombAdderBlock>(16, 5), "c");
    ext0 = model.add_link("ext0", 16, LinkKind::kCombinational);
    ext1 = model.add_link("ext1", 16, LinkKind::kCombinational);
    pa = model.add_link("pa", 16, LinkKind::kCombinational);
    pb = model.add_link("pb", 16, LinkKind::kCombinational);
    lab = model.add_link("lab", 16, LinkKind::kCombinational);
    lba = model.add_link("lba", 16, LinkKind::kCombinational);
    la1 = model.add_link("la1", 16, LinkKind::kCombinational);
    lc = model.add_link("lc", 16, LinkKind::kCombinational);
    lb1 = model.add_link("lb1", 16, LinkKind::kCombinational);
    model.bind_input(p0, 0, ext0);
    model.bind_output(p0, 0, pa);
    model.bind_input(p1, 0, ext1);
    model.bind_output(p1, 0, pb);
    model.bind_input(a, 0, lba);
    model.bind_input(a, 1, pa);
    model.bind_output(a, 0, lab);
    model.bind_output(a, 1, la1);
    model.bind_input(b, 0, lab);
    model.bind_input(b, 1, pb);
    model.bind_output(b, 0, lba);
    model.bind_output(b, 1, lb1);
    model.bind_input(c, 0, la1);
    model.bind_output(c, 0, lc);
    model.finalize();
  }
  SystemModel model;
  BlockId p0 = 0, p1 = 0, a = 0, b = 0, c = 0;
  LinkId ext0 = 0, ext1 = 0, pa = 0, pb = 0;
  LinkId lab = 0, lba = 0, la1 = 0, lc = 0, lb1 = 0;
};

TEST(CompiledEquivalence, OrLatchSccIsBitIdenticalAcrossAllEngines) {
  OrLatchModel m;

  ShardedSimulator ref(m.model, {});
  ShardedSimulator cp(m.model, {.scheduler = SchedulerKind::kCompiled});

  // The compiled build must actually have seen the cycle.
  ASSERT_NE(cp.compiled_schedule(0), nullptr);
  EXPECT_FALSE(cp.compiled_schedule(0)->acyclic());
  ASSERT_EQ(cp.compiled_schedule(0)->sccs.size(), 1u);
  EXPECT_EQ(cp.compiled_schedule(0)->sccs[0].blocks,
            (std::vector<BlockId>{m.a, m.b}));

  // Sharded compiled, both with a cut-friendly partition and with a
  // round-robin partition that forces the SCC's two blocks into
  // *different* shards: the cycle then runs as cross-shard Jacobi
  // supersteps instead of a local settle, and must still agree.
  ShardedConfig cut_cfg;
  cut_cfg.num_shards = 2;
  cut_cfg.scheduler = SchedulerKind::kCompiled;
  ShardedSimulator sh_cut(m.model, cut_cfg);

  ShardedConfig split_cfg;
  split_cfg.num_shards = 2;
  split_cfg.partition = PartitionPolicy::kRoundRobin;
  split_cfg.scheduler = SchedulerKind::kCompiled;
  ShardedSimulator sh_split(m.model, split_cfg);

  std::vector<Engine*> engines = {&ref, &cp, &sh_cut, &sh_split};

  SplitMix64 rng(0xbeef);
  for (int cycle = 0; cycle < 30; ++cycle) {
    const std::uint64_t s0 = rng.next() & 0xffff;
    const std::uint64_t s1 = rng.next() & 0xffff;
    for (Engine* e : engines) {
      e->set_external_input(m.ext0, val(16, s0));
      e->set_external_input(m.ext1, val(16, s1));
      e->step();
    }
    for (LinkId l = 0; l < m.model.num_links(); ++l) {
      for (Engine* e : engines) {
        EXPECT_EQ(e->link_value(l), ref.link_value(l))
            << "cycle " << cycle << " link " << m.model.link(l).name;
      }
    }
    for (Engine* e : engines) {
      EXPECT_EQ(engine_state_digest(*e), engine_state_digest(ref))
          << "cycle " << cycle;
    }
  }
}

TEST(CompiledEquivalence, ActivityGateHonoursRegisteredLinks) {
  // A ring of XOR blocks whose ring links are registered every third
  // hop and combinational otherwise, each block also reading its own
  // external input, driven only now and then. Blocks touching a
  // registered link must never skip a cycle (the link changes at the
  // bank flip without a change event); the others skip whenever their
  // inputs stayed put. Every engine must match the reference each cycle.
  constexpr std::size_t kBlocks = 8;
  SystemModel model;
  std::vector<BlockId> blocks;
  std::vector<LinkId> ext;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    blocks.push_back(model.add_block(std::make_shared<Xor2Block>(16, 3 * i),
                                     "x" + std::to_string(i)));
    ext.push_back(model.add_link("ext" + std::to_string(i), 16,
                                 LinkKind::kCombinational));
    model.bind_input(blocks[i], 0, ext[i]);
    const LinkId tap = model.add_link("tap" + std::to_string(i), 16,
                                      LinkKind::kCombinational);
    model.bind_output(blocks[i], 1, tap);
  }
  for (std::size_t i = 0; i < kBlocks; ++i) {
    const LinkId ring = model.add_link(
        "ring" + std::to_string(i), 16,
        i % 3 == 0 ? LinkKind::kRegistered : LinkKind::kCombinational);
    model.bind_output(blocks[i], 0, ring);
    model.bind_input(blocks[(i + 1) % kBlocks], 1, ring);
  }
  // A combinational-only block fed by two external inputs: quiet
  // whenever both stayed put.
  const BlockId quiet =
      model.add_block(std::make_shared<Xor2Block>(16, 1), "quiet");
  for (std::size_t q = 0; q < 2; ++q) {
    ext.push_back(model.add_link("quiet_in" + std::to_string(q), 16,
                                 LinkKind::kCombinational));
    model.bind_input(quiet, q, ext.back());
  }
  for (std::size_t q = 0; q < 2; ++q) {
    model.bind_output(quiet, q,
                      model.add_link("quiet_out" + std::to_string(q), 16,
                                     LinkKind::kCombinational));
  }
  model.finalize();

  ShardedSimulator ref(model, {});
  std::vector<std::unique_ptr<ShardedSimulator>> engines;
  for (const std::size_t shards : {1u, 2u, 3u}) {
    engines.push_back(std::make_unique<ShardedSimulator>(
        model, ShardedConfig{.num_shards = shards,
                             .scheduler = SchedulerKind::kCompiled}));
  }
  SplitMix64 rng(0x7e9);
  std::uint64_t skipped = 0;
  for (int cycle = 0; cycle < 80; ++cycle) {
    for (const LinkId l : ext) {
      if (rng.next_below(4) == 0) {
        const BitVector v = val(16, rng.next() & 0xffff);
        ref.set_external_input(l, v);
        for (auto& e : engines) {
          e->set_external_input(l, v);
        }
      }
    }
    ref.step();
    for (auto& e : engines) {
      skipped += e->step().skipped_blocks;
      for (LinkId l = 0; l < model.num_links(); ++l) {
        ASSERT_EQ(e->link_value(l), ref.link_value(l))
            << "cycle " << cycle << " shards " << e->num_shards() << " link "
            << model.link(l).name;
      }
    }
  }
  EXPECT_GT(skipped, 0u);  // the gate really skipped the quiet blocks
}

TEST(CompiledEquivalence, OrSelfLoopSettlesUnderCompiled) {
  // A monotone self-loop: or2 a with out0 looped back to in0. Compiled
  // confines it to a one-block settle region and converges (x = x | ext
  // is a fixed point after one round).
  SystemModel model;
  const BlockId a = model.add_block(std::make_shared<Or2Block>(8), "a");
  const LinkId loop = model.add_link("loop", 8, LinkKind::kCombinational);
  const LinkId ext = model.add_link("ext", 8, LinkKind::kCombinational);
  const LinkId out = model.add_link("out", 8, LinkKind::kCombinational);
  model.bind_output(a, 0, loop);
  model.bind_input(a, 0, loop);
  model.bind_input(a, 1, ext);
  model.bind_output(a, 1, out);
  model.finalize();

  ShardedSimulator cp(model, {.scheduler = SchedulerKind::kCompiled});
  ShardedSimulator rr(model, {});
  ShardedSimulator wl(model, {.scheduler = SchedulerKind::kWorklist});
  cp.set_external_input(ext, val(8, 0x21));
  rr.set_external_input(ext, val(8, 0x21));
  wl.set_external_input(ext, val(8, 0x21));
  const StepStats cp_stats = cp.step();
  rr.step();
  EXPECT_EQ(cp.link_value(out), val(8, 0x21));
  EXPECT_EQ(cp.link_value(out), rr.link_value(out));
  // The kWorklist alias runs the same compiled program.
  EXPECT_EQ(wl.step(), cp_stats);
  EXPECT_EQ(wl.link_value(out), cp.link_value(out));
}

TEST(CompiledEquivalence, NonSettlingLoopFailsStructurallyUnderCompiled) {
  // NOT self-loop: oscillates forever. The reference scheduler and the
  // compiled settle fallback must both convert the spin into the same
  // structured report, never a hang.
  SystemModel model;
  const BlockId a = model.add_block(std::make_shared<NotBlock>(), "a");
  const LinkId aa = model.add_link("aa", 1, LinkKind::kCombinational);
  model.bind_output(a, 0, aa);
  model.bind_input(a, 0, aa);
  model.finalize();

  auto trip = [](Engine& eng) {
    try {
      eng.step();
    } catch (const ConvergenceError& e) {
      return e.report();
    }
    ADD_FAILURE() << "oscillating loop did not trip";
    return ConvergenceReport{};
  };

  ShardedSimulator rr(model, {.max_evals_per_block = 16});
  ShardedSimulator cp(model, {.max_evals_per_block = 16,
                              .scheduler = SchedulerKind::kCompiled});
  const ConvergenceReport r1 = trip(rr);
  const ConvergenceReport r2 = trip(cp);
  EXPECT_EQ(r1.cycle, r2.cycle);
  EXPECT_EQ(r1.limit, r2.limit);
  EXPECT_EQ(r1.num_blocks, r2.num_blocks);
  EXPECT_EQ(r1.oscillating_blocks, r2.oscillating_blocks);
  ASSERT_FALSE(r2.oscillating_blocks.empty());
  EXPECT_EQ(r2.oscillating_blocks[0], a);

  ShardedSimulator wl(model, {.max_evals_per_block = 16,
                              .scheduler = SchedulerKind::kWorklist});
  const ConvergenceReport r3 = trip(wl);
  EXPECT_EQ(r3.limit, r2.limit);
  EXPECT_EQ(r3.oscillating_blocks, r2.oscillating_blocks);
}

TEST(CompiledEquivalence, SettleBudgetReportsTheSccBudgetItHit) {
  // A NOT self-loop beside an acyclic chain ext -> c0 -> c1 -> c2. The
  // compiled settle of the one-block SCC runs out of its own budget
  // (max_evals x |SCC| = 16), not the shard's, and the report must name
  // the budget that was actually hit — for one shard and for two.
  SystemModel model;
  const BlockId n = model.add_block(std::make_shared<NotBlock>(), "n");
  const LinkId nn = model.add_link("nn", 1, LinkKind::kCombinational);
  model.bind_output(n, 0, nn);
  model.bind_input(n, 0, nn);
  LinkId prev = model.add_link("ext", 1, LinkKind::kCombinational);
  for (int i = 0; i < 3; ++i) {
    const BlockId c = model.add_block(std::make_shared<CombAdderBlock>(1, 0),
                                      "c" + std::to_string(i));
    const LinkId out = model.add_link("l" + std::to_string(i), 1,
                                      LinkKind::kCombinational);
    model.bind_input(c, 0, prev);
    model.bind_output(c, 0, out);
    prev = out;
  }
  model.finalize();

  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedSimulator sim(model, {.num_shards = shards,
                                 .max_evals_per_block = 16,
                                 .scheduler = SchedulerKind::kCompiled});
    try {
      sim.step();
      ADD_FAILURE() << "oscillating self-loop did not trip";
    } catch (const ConvergenceError& e) {
      EXPECT_EQ(e.report().limit, 16u);
      EXPECT_GT(e.report().delta_cycles, e.report().limit);
    }
  }
}

}  // namespace
}  // namespace tmsim::core
