// SequentialSimulator: the paper's core contribution (§4) — simulate a
// parallel synchronous system by evaluating its partitions one at a time.
//
// Terminology (§4): a *system cycle* is one clock cycle of the simulated
// parallel design; a *delta cycle* is one block evaluation in the
// sequential simulator and does not advance simulated time. A system
// cycle consists of at least num_blocks delta cycles.
//
// Three schedules:
//
//  - kStatic (§4.1, Fig. 3): legal only when every internal boundary is
//    registered. One pass over the blocks in arbitrary order; readers
//    consume previous-cycle values from the old bank. Exactly num_blocks
//    delta cycles per system cycle.
//
//  - kDynamic (§4.2, Fig. 5): the paper's method for combinational
//    boundaries. All HBR bits are cleared at the start of the system
//    cycle (so every block is evaluated at least once); a round-robin
//    scheduler evaluates non-stable blocks; writing a *changed* value to a
//    link clears its HBR bit and destabilizes its reader; the cycle ends
//    when all blocks are stable.
//
//  - kTwoPhaseOracle: an ablation, not in the paper. It exploits the fact
//    that the case-study router's outputs depend on registered state only:
//    pass 1 evaluates every block against stale links to publish outputs,
//    pass 2 re-evaluates every block with final links. Exactly 2×num_blocks
//    delta cycles — a design-specific upper bound the generic HBR schedule
//    must beat or match on real traffic (bench/ablation_schedules).
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/static_schedule.h"
#include "common/bit_vector.h"
#include "common/error.h"
#include "common/types.h"
#include "core/engine.h"
#include "core/link_memory.h"
#include "core/state_memory.h"
#include "core/system_model.h"

namespace tmsim::core {

class SequentialSimulator : public Engine {
 public:
  /// `max_evals_per_block` bounds re-evaluation; exceeding it means the
  /// netlist contains a combinational cycle that does not settle, which
  /// is reported as an Error rather than an infinite loop.
  /// `schedule_seed` rotates the dynamic schedule's starting round-robin
  /// cursor (seed 1 = the canonical cursor 0 used throughout the paper
  /// reproduction). Committed results are schedule-independent by the
  /// engine contract, so the seed can never change what a workload
  /// observes — only the order (and count) of delta cycles.
  /// `scheduler` selects how the dynamic schedule picks non-stable
  /// blocks (SchedulerKind); kWorklist rejects degenerate topologies via
  /// check_scheduler_topology and is bit-identical to the reference
  /// kRoundRobin otherwise.
  SequentialSimulator(const SystemModel& model, SchedulePolicy policy,
                      std::size_t max_evals_per_block = 64,
                      std::uint64_t schedule_seed = 1,
                      SchedulerKind scheduler = SchedulerKind::kRoundRobin);

  /// Drives an external-input link (takes effect for the next step()).
  void set_external_input(LinkId link, const BitVector& value) override;

  /// Current reader-visible value of any link. For combinational links
  /// this is the value driven during the last step(); for registered
  /// links, the value committed at its clock edge.
  const BitVector& link_value(LinkId link) const override;

  /// Old-bank (committed) state of a block, encoded lazily (Engine).
  const BitVector& block_state(BlockId block) const override;

  /// Decodes `value` into a block's committed state (reset, restore,
  /// testing).
  void load_block_state(BlockId block, const BitVector& value) override;

  /// Overwrites a link's reader-visible value (checkpoint restore).
  void load_link_value(LinkId link, const BitVector& value) override;

  /// Simulates one system cycle.
  StepStats step() override;

  SystemCycle cycle() const override { return cycle_; }
  DeltaCycle total_delta_cycles() const override {
    return total_delta_cycles_;
  }
  SchedulePolicy policy() const override { return policy_; }
  SchedulerKind scheduler() const { return scheduler_; }
  void rebase(SystemCycle cycle, DeltaCycle total_deltas) override;
  SchedulerCheckpoint scheduler_checkpoint() const override;
  void restore_scheduler_state(const SchedulerCheckpoint& sched) override;

  /// The build-time schedule (kCompiled only; empty otherwise) — exposed
  /// for tests and the schedule-inspection tooling.
  const analysis::CompiledSchedule* compiled_schedule() const {
    return compiled_ ? &*compiled_ : nullptr;
  }

  const SystemModel& model() const override { return model_; }
  const StateMemory& state_memory() const { return state_; }
  const LinkMemory& link_memory() const { return links_; }

  /// Called once per delta cycle with (system cycle, delta index within
  /// the cycle, evaluated block) — used by the Fig. 3 / Fig. 5 schedule
  /// trace benches.
  using TraceHook = std::function<void(SystemCycle, DeltaCycle, BlockId)>;
  void set_trace_hook(TraceHook hook) { trace_ = std::move(hook); }

 private:
  friend class SequentialSimulatorTestPeer;

  /// Settle context threaded through compiled-mode evaluations while a
  /// CompiledScc runs its scoped worklist.
  struct SettleCtx {
    const analysis::CompiledScc* scc = nullptr;
    std::uint32_t scc_id = 0;      ///< scc index + 1 (scc_of_link encoding)
    std::vector<char>* unstable = nullptr;  ///< per SCC member
    std::size_t* remaining = nullptr;
  };

  void evaluate_block(BlockId b, StepStats& stats);
  void evaluate_block_compiled(BlockId b, StepStats& stats,
                               const SettleCtx* ctx);
  void destabilize(BlockId b);
  bool inputs_all_read(BlockId b) const;
  void begin_eval_accounting();
  void note_first_eval(BlockId b);
  StepStats step_static();
  StepStats step_dynamic();
  StepStats step_dynamic_worklist();
  StepStats step_compiled();
  void settle_scc(std::uint32_t scc_index, StepStats& stats);
  StepStats step_two_phase();
  void end_of_cycle();
  [[noreturn]] void fail_convergence(const StepStats& stats,
                                     DeltaCycle limit);

  const SystemModel& model_;
  SchedulePolicy policy_;
  std::size_t max_evals_per_block_;
  SchedulerKind scheduler_;
  StateMemory state_;
  LinkMemory links_;
  SystemCycle cycle_ = 0;
  DeltaCycle total_delta_cycles_ = 0;
  TraceHook trace_;

  ConvergenceReport make_convergence_report(const StepStats& stats,
                                            DeltaCycle limit) const;

  // Dynamic-schedule bookkeeping. `unstable_` doubles as the worklist's
  // dedup flag: a block is on the FIFO iff its flag is set.
  std::vector<char> unstable_;
  std::size_t unstable_count_ = 0;
  std::size_t rr_next_ = 0;
  std::size_t rr_init_ = 0;  ///< seeded cursor; canonical restore target

  // First-evaluation accounting (explicit, per cycle): re_evaluations =
  // delta_cycles - first_evals_, computed the same way under every
  // scheduler so a cycle that throws mid-settle can never underflow it.
  std::vector<char> evaluated_;
  std::size_t first_evals_ = 0;

  // Compiled-schedule runtime (kCompiled only).
  std::optional<analysis::CompiledSchedule> compiled_;
  std::vector<char> scc_unstable_;  // scratch, sized per settling SCC

  // Worklist-scheduler bookkeeping (empty under kRoundRobin).
  std::vector<BlockId> worklist_;   // FIFO; consumed prefix [0, wl_head_)
  std::size_t wl_head_ = 0;
  std::vector<char> skippable_;     // static: all links combinational
  std::vector<char> state_fixed_;   // last committed eval was old==new
  std::vector<char> pending_input_; // input changed since last eval
  std::uint64_t wl_high_water_ = 0;
  // Bounded history of changed links, for convergence diagnostics.
  static constexpr std::size_t kChangedLinkHistory = 8;
  std::array<LinkId, kChangedLinkHistory> recent_changed_links_{};
  std::size_t recent_changed_count_ = 0;

  // Scratch buffers reused across evaluations (hot path).
  std::vector<BitVector> in_scratch_;
  std::vector<BitVector> out_scratch_;
};

}  // namespace tmsim::core
