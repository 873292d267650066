// Figures 3 and 5: the schedule traces of the two sequential-simulation
// methods, regenerated from the engine's trace hook on the paper's
// three-block example systems.
//
// Fig. 3 (static): a registered-boundary ring needs exactly one delta
// cycle per block per system cycle, in arbitrary order.
//
// Fig. 5 (dynamic): a combinational-boundary ring starts every system
// cycle with all HBR bits cleared; changed link writes re-destabilize
// readers, so some blocks are evaluated twice. The trace shows which
// delta cycle (c,d) evaluated which block, like the paper's figure.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "core/example_blocks.h"
#include "core/sharded_simulator.h"

namespace {

using namespace tmsim;
using namespace tmsim::core;

struct TraceTotals {
  std::uint64_t delta_cycles = 0;
  std::uint64_t re_evaluations = 0;
};

TraceTotals trace_run(ShardedSimulator& sim, std::size_t cycles) {
  struct Event {
    SystemCycle c;
    DeltaCycle d;
    BlockId b;
  };
  std::vector<Event> events;
  sim.set_trace_hook([&](SystemCycle c, DeltaCycle d, BlockId b) {
    events.push_back({c, d, b});
  });
  std::vector<StepStats> stats;
  for (std::size_t i = 0; i < cycles; ++i) {
    stats.push_back(sim.step());
  }
  for (std::size_t c = 0; c < cycles; ++c) {
    std::printf("  system cycle %zu: ", c);
    for (const Event& e : events) {
      if (e.c == c) {
        std::printf("(%zu,%llu)=F'%zu  ", c,
                    static_cast<unsigned long long>(e.d), e.b + 1);
      }
    }
    std::printf("| %llu delta cycles, %llu re-evaluations\n",
                static_cast<unsigned long long>(stats[c].delta_cycles),
                static_cast<unsigned long long>(stats[c].re_evaluations));
  }
  TraceTotals totals;
  for (const StepStats& s : stats) {
    totals.delta_cycles += s.delta_cycles;
    totals.re_evaluations += s.re_evaluations;
  }
  return totals;
}

}  // namespace

int main() {
  TraceTotals static_totals, dynamic_totals;
  bench::print_header("Figure 3", "static schedule on a registered ring");
  {
    // Fig. 2a: three circuits F1..F3 separated by registers R1..R3.
    SystemModel m;
    std::vector<BlockId> blocks;
    for (int i = 0; i < 3; ++i) {
      blocks.push_back(m.add_block(
          std::make_shared<examples::RegAdderBlock>(16, i + 1),
          "F" + std::to_string(i + 1)));
    }
    std::vector<LinkId> regs;
    for (int i = 0; i < 3; ++i) {
      regs.push_back(
          m.add_link("R" + std::to_string(i + 1), 16, LinkKind::kRegistered));
    }
    for (int i = 0; i < 3; ++i) {
      m.bind_output(blocks[i], 0, regs[i]);
      m.bind_input(blocks[(i + 1) % 3], 0, regs[i]);
    }
    m.finalize();
    ShardedSimulator sim(m, {.schedule = SchedulePolicy::kStatic});
    std::printf("each (cycle,delta)=block entry is one evaluation; the\n"
                "static method needs exactly num_blocks deltas per cycle:\n");
    static_totals = trace_run(sim, 3);
    std::printf("  register values after 3 cycles: R1=%llu R2=%llu R3=%llu\n",
                (unsigned long long)sim.link_value(regs[0]).get_field(0, 16),
                (unsigned long long)sim.link_value(regs[1]).get_field(0, 16),
                (unsigned long long)sim.link_value(regs[2]).get_field(0, 16));
  }

  bench::print_header("Figure 5",
                      "dynamic (HBR) schedule on a combinational ring");
  {
    // Fig. 4a: three router-like blocks whose outputs are unbuffered
    // wires; state changes make link values change, forcing
    // re-evaluations exactly as in the paper's walkthrough.
    SystemModel m;
    std::vector<BlockId> blocks;
    std::vector<LinkId> links;
    for (int i = 0; i < 3; ++i) {
      blocks.push_back(m.add_block(
          std::make_shared<examples::PipeBlock>(16, 1, 10 * (i + 1)),
          "R" + std::to_string(i)));
      links.push_back(m.add_link("link" + std::to_string(i), 16,
                                 LinkKind::kCombinational));
    }
    for (int i = 0; i < 3; ++i) {
      m.bind_output(blocks[i], 0, links[i]);
      m.bind_input(blocks[(i + 1) % 3], 0, links[i]);
    }
    m.finalize();
    ShardedSimulator sim(m, {});
    std::printf("every cycle starts with all HBR bits cleared (all blocks\n"
                "evaluated at least once); a changed link value clears its\n"
                "HBR bit and re-destabilizes the reader:\n");
    dynamic_totals = trace_run(sim, 3);
  }

  std::printf("\nclaims:\n");
  std::printf("  static schedule: exactly N delta cycles per system cycle\n");
  std::printf("  dynamic schedule: N..2N delta cycles, re-evaluations only\n"
              "  where link values actually changed (§4.2)\n");

  bench::emit_bench_json(
      "fig3_fig5_schedules", {{"cycles", "3"}, {"blocks", "3"}},
      {{"static.delta_cycles", static_cast<double>(static_totals.delta_cycles),
        "count"},
       {"static.re_evaluations",
        static_cast<double>(static_totals.re_evaluations), "count"},
       {"dynamic.delta_cycles",
        static_cast<double>(dynamic_totals.delta_cycles), "count"},
       {"dynamic.re_evaluations",
        static_cast<double>(dynamic_totals.re_evaluations), "count"}});
  return 0;
}
