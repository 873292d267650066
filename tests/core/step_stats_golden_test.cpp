// Golden StepStats streams of the paper's method (§4) as the one-shard
// engine. The constants below are FNV-1a digests of 40 cycles of
// per-cycle StepStats. The round-robin rows, and every static and
// two-phase row, were recorded from the dedicated sequential engine this
// one-shard engine replaced, so a match proves the merge kept not just
// the results but the exact amount and order of scheduling work: every
// delta cycle, re-evaluation, skip and link change. The dynamic
// compiled rows (and their kWorklist alias) pin the activity-gated
// compiled schedule; they were recorded when it replaced the worklist
// scheduler and the ungated compiled program.
//
// Digested fields: every StepStats field except barrier_spins, which is
// wall-clock noise on a multi-shard engine and checked to be 0 here, plus
// a zero word where the retired worklist_high_water field used to be, so
// the recorded digests stay comparable. The one recorded difference is
// settle_rounds under kTwoPhaseOracle: the sequential engine reported 1,
// the one-shard engine reports one round per pass (2), and the constants
// were recorded with 2.
//
// Workloads: the dynamic and two-phase schedules run a 4x4 mesh NoC under
// seeded best-effort traffic (load 0.2, traffic seed 13). A NoC has
// combinational links, which the static schedule (§4.1) rejects, so the
// static configs run a 16-block ring of registered adders instead.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/example_blocks.h"
#include "core/noc_block.h"
#include "core/sharded_simulator.h"
#include "traffic/harness.h"

namespace tmsim::core {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr int kCycles = 40;

void mix(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

void mix_stats(std::uint64_t& h, const StepStats& s) {
  EXPECT_EQ(s.barrier_spins, 0u);
  mix(h, s.delta_cycles);
  mix(h, s.re_evaluations);
  mix(h, s.skipped_blocks);
  mix(h, 0);  // retired worklist_high_water slot
  mix(h, s.link_changes);
  mix(h, s.settle_rounds);
  mix(h, s.cut_publishes);
}

std::uint64_t registered_ring_digest(SchedulerKind sched,
                                     std::uint64_t seed) {
  SystemModel m;
  SplitMix64 rng(0x57a71c);
  std::vector<BlockId> blocks;
  for (int i = 0; i < 16; ++i) {
    blocks.push_back(m.add_block(std::make_shared<examples::RegAdderBlock>(
                                     16, rng.next_below(1000)),
                                 "r" + std::to_string(i)));
  }
  for (int i = 0; i < 16; ++i) {
    const LinkId l =
        m.add_link("R" + std::to_string(i), 16, LinkKind::kRegistered);
    m.bind_output(blocks[i], 0, l);
    m.bind_input(blocks[(i + 1) % 16], 0, l);
  }
  m.finalize();
  ShardedSimulator sim(m, {.schedule = SchedulePolicy::kStatic,
                           .schedule_seed = seed,
                           .scheduler = sched});
  std::uint64_t h = kFnvOffset;
  for (int c = 0; c < kCycles; ++c) {
    mix_stats(h, sim.step());
  }
  return h;
}

std::uint64_t noc_digest(SchedulePolicy policy, SchedulerKind sched,
                         std::uint64_t seed) {
  noc::NetworkConfig net;
  net.width = 4;
  net.height = 4;
  EngineOptions opts;
  opts.policy = policy;
  opts.scheduler = sched;
  opts.seed = seed;
  SeqNocSimulation sim(net, opts);
  traffic::TrafficHarness::Options topts;
  topts.seed = 13;
  traffic::TrafficHarness harness(sim, topts);
  harness.set_be_load(0.2);
  std::uint64_t h = kFnvOffset;
  for (int c = 0; c < kCycles; ++c) {
    harness.run(1);
    mix_stats(h, sim.last_step_stats());
  }
  return h;
}

struct Golden {
  SchedulePolicy policy;
  SchedulerKind sched;
  std::uint64_t seed;
  std::uint64_t digest;
};

constexpr SchedulePolicy kStatic = SchedulePolicy::kStatic;
constexpr SchedulePolicy kDynamic = SchedulePolicy::kDynamic;
constexpr SchedulePolicy kTwoPhase = SchedulePolicy::kTwoPhaseOracle;
constexpr SchedulerKind kRr = SchedulerKind::kRoundRobin;
constexpr SchedulerKind kWl = SchedulerKind::kWorklist;
constexpr SchedulerKind kCp = SchedulerKind::kCompiled;

constexpr Golden kGolden[] = {
    {kStatic, kRr, 1, 0x57ac345a97d4a0a5ull},
    {kStatic, kRr, 7, 0x57ac345a97d4a0a5ull},
    {kStatic, kWl, 1, 0x57ac345a97d4a0a5ull},
    {kStatic, kWl, 7, 0x57ac345a97d4a0a5ull},
    {kStatic, kCp, 1, 0x57ac345a97d4a0a5ull},
    {kStatic, kCp, 7, 0x57ac345a97d4a0a5ull},
    {kDynamic, kRr, 1, 0xac3382af2e0c41fdull},
    {kDynamic, kRr, 7, 0xe2f8a3f93cf3941dull},
    {kDynamic, kWl, 1, 0xf6f2a54305c4ecbbull},
    {kDynamic, kWl, 7, 0xf6f2a54305c4ecbbull},
    {kDynamic, kCp, 1, 0xf6f2a54305c4ecbbull},
    {kDynamic, kCp, 7, 0xf6f2a54305c4ecbbull},
    {kTwoPhase, kRr, 1, 0x028d27a614b2e07dull},
    {kTwoPhase, kRr, 7, 0x028d27a614b2e07dull},
    {kTwoPhase, kWl, 1, 0x028d27a614b2e07dull},
    {kTwoPhase, kWl, 7, 0x028d27a614b2e07dull},
    {kTwoPhase, kCp, 1, 0x028d27a614b2e07dull},
    {kTwoPhase, kCp, 7, 0x028d27a614b2e07dull},
};

TEST(StepStatsGolden, OneShardEngineReplaysThePaperEnginesStreams) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(g.policy)) +
                 " scheduler=" + scheduler_kind_name(g.sched) +
                 " seed=" + std::to_string(g.seed));
    const std::uint64_t got = g.policy == kStatic
                                  ? registered_ring_digest(g.sched, g.seed)
                                  : noc_digest(g.policy, g.sched, g.seed);
    EXPECT_EQ(got, g.digest);
  }
}

}  // namespace
}  // namespace tmsim::core
