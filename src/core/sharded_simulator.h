// ShardedSimulator: the engine. With one shard it *is* the paper's
// sequential time-multiplexed simulator (§4): one double-banked state
// memory, one link memory with HBR bits, one round-robin scheduler, run
// on the calling thread with no worker threads and no cut links. More
// shards put back the parallelism §4 traded away (Manticore's static
// bulk-synchronous style, with the partition chosen by
// src/core/partition.h) while keeping the same observable semantics.
//
// Terminology (§4): a *system cycle* is one clock cycle of the simulated
// parallel design; a *delta cycle* is one block evaluation and does not
// advance simulated time. A system cycle takes at least num_blocks delta
// cycles. Three schedules:
//
//  - kStatic (§4.1, Fig. 3): legal only when every internal boundary is
//    registered. One pass over the blocks in index order; readers consume
//    previous-cycle values from the old bank. Exactly num_blocks delta
//    cycles per system cycle.
//  - kDynamic (§4.2, Fig. 5): the paper's method for combinational
//    boundaries. Under the kRoundRobin scheduler all HBR bits are
//    cleared at the start of the system cycle (so every block is
//    evaluated at least once); the scheduler evaluates non-stable
//    blocks; writing a *changed* value to a link clears its HBR bit and
//    destabilizes its reader; the cycle ends when all blocks are stable.
//    Under kCompiled (and its alias kWorklist) each shard instead replays
//    a build-time op list, gated on block activity (see
//    run_compiled_schedule).
//  - kTwoPhaseOracle: an ablation, not in the paper, for designs whose
//    outputs depend on registered state only (the case-study router):
//    pass 1 publishes every output, pass 2 re-evaluates every block with
//    final links. Exactly 2 x num_blocks delta cycles.
//
// The model's blocks are split into N shards; one worker thread runs
// each shard (the constructing thread doubles as shard 0's worker).
// Every shard owns a shard-local double-banked StateMemory and a
// shard-local LinkMemory materializing exactly the links its blocks
// touch. Cut links are *mirrored*: the writer's shard keeps the
// authoritative copy (for change detection), the reader's shard keeps a
// replica (for evaluation and its HBR bit), and the two are reconciled
// through a versioned single-writer mailbox slot at every delta-cycle
// barrier.
//
// One system cycle of the dynamic schedule is a sequence of
// *supersteps*:
//
//   phase A  every shard round-robins over its non-stable blocks until
//            locally stable, publishing changed cut-link values;
//   barrier  (also agrees "did anyone diverge?");
//   phase B  every shard polls its incoming slots; a changed value is
//            written to the replica, the replica's HBR bit is cleared
//            and the reading block destabilized — exactly the §4.2 rule,
//            one superstep late;
//   barrier  (agrees "how many blocks are unstable anywhere?"),
//
// repeated until the global count is zero. A block is re-evaluated
// whenever any input changed after it last read it (locally at once,
// across shards at the next superstep), and the cycle ends only when no
// link anywhere changed and every block is stable. The final link fixed
// point — and therefore every register bit — is independent of the
// shard count and the partition; tests/integration/
// sharded_equivalence_test.cpp enforces this differentially. Only
// StepStats may differ (the schedules do different amounts of
// re-evaluation work). With one shard every barrier is trivial, each
// schedule takes one superstep (two-phase: one per pass), and the
// StepStats stream is the paper engine's (tests/core/
// step_stats_golden_test.cpp pins it).
//
// Divergence (an oscillating combinational loop) is detected
// cooperatively: per-shard evaluation budgets and a superstep bound are
// reduced through the barrier so every worker abandons the cycle at the
// same point, and step() throws one ConvergenceError with the shards'
// reports merged.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "analysis/static_schedule.h"
#include "core/engine.h"
#include "core/link_memory.h"
#include "core/partition.h"
#include "core/shard_mailbox.h"
#include "core/state_memory.h"

namespace tmsim::core {

struct ShardedConfig {
  /// Worker count; clamped to the model's block count. 1 runs the
  /// paper's engine on the calling thread.
  std::size_t num_shards = 1;
  PartitionPolicy partition = PartitionPolicy::kMinCutGreedy;
  SchedulePolicy schedule = SchedulePolicy::kDynamic;
  /// Per-cycle evaluation budget per block and superstep bound;
  /// exceeding either means a non-settling combinational loop.
  std::size_t max_evals_per_block = 64;
  /// Rotates each shard's starting round-robin cursor (dynamic
  /// schedule; see schedule_rr_offset). Seed 1 is canonical (cursor 0
  /// everywhere); results are schedule-independent, so this can only
  /// change StepStats.
  std::uint64_t schedule_seed = 1;
  /// Non-stable-block pickup within phase A of each superstep:
  /// kRoundRobin is the dense §4.2 sweep; kCompiled (kWorklist is an
  /// alias) a per-shard build-time static schedule gated on block
  /// activity (cut links are treated as registered edges: each superstep
  /// replays the shard schedule against the latest replica values until
  /// the exchange reports quiescence). Bit-identical results in every
  /// case; only StepStats may differ.
  SchedulerKind scheduler = SchedulerKind::kRoundRobin;
};

class ShardedSimulator : public Engine {
 public:
  ShardedSimulator(const SystemModel& model, const ShardedConfig& cfg);
  ~ShardedSimulator() override;

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  void set_external_input(LinkId link, const BitVector& value) override;
  const BitVector& link_value(LinkId link) const override;
  const BitVector& block_state(BlockId block) const override;
  void load_block_state(BlockId block, const BitVector& value) override;
  void load_link_value(LinkId link, const BitVector& value) override;
  StepStats step() override;
  SchedulerCheckpoint scheduler_checkpoint() const override;
  void restore_scheduler_state(const SchedulerCheckpoint& sched) override;

  SystemCycle cycle() const override { return cycle_; }
  DeltaCycle total_delta_cycles() const override {
    return total_delta_cycles_;
  }
  SchedulePolicy policy() const override { return cfg_.schedule; }
  SchedulerKind scheduler() const { return cfg_.scheduler; }
  void rebase(SystemCycle cycle, DeltaCycle total_deltas) override;
  const SystemModel& model() const override { return model_; }

  std::size_t num_shards() const { return part_.num_shards(); }
  const Partition& partition() const { return part_; }
  /// Cut links (== mailbox slots) under the active partition.
  std::size_t num_boundary_links() const { return boundary_links_; }
  /// Barrier-separated supersteps executed so far (at least one per
  /// system cycle; each superstep is a settle + exchange round).
  std::uint64_t total_supersteps() const { return total_supersteps_; }

  /// Shard `shard`'s build-time schedule (kCompiled only; nullptr
  /// otherwise) — for tests and the schedule-inspection tooling.
  const analysis::CompiledSchedule* compiled_schedule(std::size_t shard) const;

  /// Called once per delta cycle with (system cycle, delta index within
  /// the cycle, evaluated block) — the Fig. 3 / Fig. 5 schedule traces.
  /// One-shard engines only (throws otherwise): concurrent shards have
  /// no single delta order to report.
  using TraceHook = std::function<void(SystemCycle, DeltaCycle, BlockId)>;
  void set_trace_hook(TraceHook hook);

 private:
  struct InSlot {
    LinkId link = 0;
    std::size_t slot = 0;
    std::uint64_t last_seen = 0;
    LinkKind kind = LinkKind::kCombinational;
  };

  /// A compiled op with its block as a shard-local index (kEval,
  /// kDrive) or its SCC index (kSettle).
  struct LocalOp {
    analysis::CompiledOpKind kind;
    std::uint32_t index;
  };

  struct Shard {
    std::size_t index = 0;
    std::vector<BlockId> blocks;      // global ids
    StateMemory state;                // indexed by local block index
    LinkMemory links;                 // global LinkIds, subset-materialized
    std::vector<InSlot> incoming;     // cut links read by this shard

    // Dynamic-schedule bookkeeping (local block indices).
    std::vector<char> unstable;
    std::size_t unstable_count = 0;
    std::size_t rr_next = 0;
    std::size_t rr_init = 0;  // seeded cursor; canonical restore target

    // First-evaluation accounting (per cycle): the coordinator computes
    // re_evaluations = Σ delta_cycles - Σ first_evals, identically under
    // every scheduler, so a cycle abandoned mid-settle cannot underflow.
    std::vector<char> evaluated;
    std::size_t first_evals = 0;

    // Same-shard readers of every link, as local indices (CSR: link l's
    // readers are local_readers[reader_begin[l] .. reader_begin[l+1])).
    std::vector<std::uint32_t> reader_begin;
    std::vector<std::uint32_t> local_readers;

    // Per-shard build-time schedule (kCompiled only): the model's link
    // graph restricted to this shard's blocks. Cut links fall out of the
    // tracked set (one endpoint is elsewhere), so the schedule treats
    // them exactly like registered edges — pre-final for the superstep.
    // `program` is its op list with blocks as local indices.
    std::optional<analysis::CompiledSchedule> compiled;
    std::vector<LocalOp> program;
    std::vector<char> scc_unstable;  // scratch, sized per settling SCC

    // Activity flags of the compiled schedule (local indices).
    std::vector<char> skippable;      // static: all links combinational
    std::vector<char> state_fixed;    // last committed eval: old == new
    std::vector<char> pending_input;  // input changed since last eval

    // Per-cycle outcome, read by the coordinator after the final barrier.
    StepStats stats;
    bool diverged = false;
    DeltaCycle fail_limit = 0;  // the budget this shard ran out of
    bool cycle_failed = false;
    std::size_t supersteps = 0;
    std::exception_ptr error;
    ConvergenceReport report;
    // Wall-clock mark for observer superstep timing (worker-local).
    std::uint64_t mark_ns = 0;

    // Scratch reused across evaluations (hot path).
    std::vector<BitVector> in_scratch;
    std::vector<BitVector> out_scratch;
    BitVector poll_scratch{0};
    static constexpr std::size_t kChangedLinkHistory = 8;
    std::array<LinkId, kChangedLinkHistory> recent_changed_links{};
    std::size_t recent_changed_count = 0;

    Shard(std::size_t idx, std::vector<BlockId> blks,
          std::vector<const SimBlock*> logic, const SystemModel& model,
          const std::vector<char>& materialize)
        : index(idx),
          blocks(std::move(blks)),
          state(std::move(logic)),
          links(model, materialize) {}
  };

  /// Settle context threaded through compiled-mode evaluations while a
  /// CompiledScc runs its scoped worklist.
  struct CompiledSettleCtx {
    const analysis::CompiledScc* scc = nullptr;
    std::uint32_t scc_id = 0;  ///< scc index + 1 (scc_of_link encoding)
    std::vector<char>* unstable = nullptr;  ///< per SCC member
    std::size_t* remaining = nullptr;
  };

  void worker_main(std::size_t s);
  void run_cycle(std::size_t s);
  void cycle_static(Shard& sh);
  void cycle_dynamic(Shard& sh);
  void cycle_compiled(Shard& sh);
  void cycle_two_phase(Shard& sh);
  void evaluate_block(Shard& sh, std::size_t local,
                      const CompiledSettleCtx* ctx = nullptr);
  void run_compiled_schedule(Shard& sh);
  void settle_scc_local(Shard& sh, std::uint32_t scc_index);
  void settle_local(Shard& sh);
  void evaluate_all_local(Shard& sh);
  void apply_incoming(Shard& sh);
  void destabilize_local(Shard& sh, std::size_t local);
  bool inputs_all_read(const Shard& sh, BlockId global) const;
  bool write_copies(LinkId link, const BitVector& value);
  void diverge(Shard& sh, DeltaCycle limit);
  void fill_report(Shard& sh);
  template <typename F>
  void guarded(Shard& sh, F&& f);
  /// Two aligned barrier syncs shared by every schedule: agree on
  /// failure after the evaluation phase, then exchange and agree on
  /// global instability. Returns false when the cycle must be abandoned.
  bool exchange_round(Shard& sh);
  /// True when the compiled schedule (with its activity flags) runs.
  bool activity_gated() const { return shards_.front()->compiled.has_value(); }

  friend class ShardedSimulatorTestPeer;

  const SystemModel& model_;
  ShardedConfig cfg_;
  Partition part_;
  std::size_t boundary_links_ = 0;
  std::vector<std::size_t> local_of_;       // global block -> local index
  std::vector<std::size_t> link_home_;      // link -> authoritative shard
  std::vector<std::size_t> slot_of_link_;   // link -> mailbox slot (or npos)

  std::unique_ptr<ShardMailbox> mailbox_;
  std::unique_ptr<ShardBarrier> barrier_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
  TraceHook trace_;

  SystemCycle cycle_ = 0;
  DeltaCycle total_delta_cycles_ = 0;
  std::uint64_t total_supersteps_ = 0;
};

}  // namespace tmsim::core
