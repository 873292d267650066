// ShardedSimulator: a bulk-synchronous parallel engine over the same
// SystemModel the SequentialSimulator executes — the paper's §4 engine
// with the parallelism put back (Manticore's static bulk-synchronous
// style, with the partition chosen by src/core/partition.h).
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
// One system cycle of the dynamic (§4.2) schedule is a sequence of
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
// repeated until the global count is zero. HBR convergence semantics
// are preserved exactly: a block is re-evaluated whenever any input
// changed after it last read it (locally at once, across shards at the
// next superstep), and the cycle ends only when no link anywhere
// changed and every block is stable. The final link fixed point — and
// therefore every register bit — is the one the sequential engine
// reaches, for any schedule policy; tests/integration/
// sharded_equivalence_test.cpp enforces this differentially. Only
// StepStats may differ (the schedules do different amounts of
// re-evaluation work).
//
// Divergence (an oscillating combinational loop) is detected
// cooperatively: per-shard evaluation budgets and a superstep bound are
// reduced through the barrier so every worker abandons the cycle at the
// same point, and step() throws the same ConvergenceError the
// sequential engine would, with the shards' reports merged.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
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
  /// Worker count; clamped to the model's block count. 1 degenerates to
  /// the sequential engine's behaviour on the calling thread.
  std::size_t num_shards = 1;
  PartitionPolicy partition = PartitionPolicy::kMinCutGreedy;
  SchedulePolicy schedule = SchedulePolicy::kDynamic;
  /// Per-cycle evaluation budget per block and superstep bound;
  /// exceeding either means a non-settling combinational loop.
  std::size_t max_evals_per_block = 64;
  /// Rotates each shard's starting round-robin cursor (dynamic
  /// schedule). Seed 1 is canonical (cursor 0 everywhere); results are
  /// schedule-independent, so this can only change StepStats.
  std::uint64_t schedule_seed = 1;
  /// Non-stable-block pickup within phase A of each superstep:
  /// kRoundRobin is the dense §4.2 sweep, kWorklist the event-driven
  /// scheduler with the quiescence fast path, kCompiled a per-shard
  /// build-time static schedule (cut links are treated as registered
  /// edges: each superstep re-runs the full shard schedule against the
  /// latest replica values until the exchange reports quiescence).
  /// Bit-identical results in every case; only StepStats may differ.
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

 private:
  struct InSlot {
    LinkId link = 0;
    std::size_t slot = 0;
    std::uint64_t last_seen = 0;
    LinkKind kind = LinkKind::kCombinational;
  };

  struct Shard {
    std::size_t index = 0;
    std::vector<BlockId> blocks;      // global ids
    StateMemory state;                // indexed by local block index
    LinkMemory links;                 // global LinkIds, subset-materialized
    std::vector<InSlot> incoming;     // cut links read by this shard

    // Dynamic-schedule bookkeeping (local block indices). `unstable`
    // doubles as the worklist's dedup flag under kWorklist.
    std::vector<char> unstable;
    std::size_t unstable_count = 0;
    std::size_t rr_next = 0;
    std::size_t rr_init = 0;  // seeded cursor; canonical restore target

    // First-evaluation accounting (per cycle): the coordinator computes
    // re_evaluations = Σ delta_cycles - Σ first_evals, identically under
    // every scheduler, so a cycle abandoned mid-settle cannot underflow.
    std::vector<char> evaluated;
    std::size_t first_evals = 0;

    // Per-shard build-time schedule (kCompiled only): the model's link
    // graph restricted to this shard's blocks. Cut links fall out of the
    // tracked set (one endpoint is elsewhere), so the schedule treats
    // them exactly like registered edges — pre-final for the superstep.
    std::optional<analysis::CompiledSchedule> compiled;
    std::vector<char> scc_unstable;  // scratch, sized per settling SCC

    // Worklist-scheduler bookkeeping (local indices; empty under
    // kRoundRobin). The FIFO persists across the cycle's supersteps:
    // phase B pushes cross-shard events onto it for the next phase A.
    std::vector<std::size_t> worklist;  // consumed prefix [0, wl_head)
    std::size_t wl_head = 0;
    std::vector<char> skippable;        // static: all links combinational
    std::vector<char> state_fixed;      // last committed eval: old == new
    std::vector<char> pending_input;    // input changed since last eval

    // Per-cycle outcome, read by the coordinator after the final barrier.
    StepStats stats;
    bool diverged = false;
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
  /// CompiledScc runs its scoped worklist (see SequentialSimulator).
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
  void evaluate_block(Shard& sh, std::size_t local);
  void evaluate_block_compiled(Shard& sh, std::size_t local,
                               const CompiledSettleCtx* ctx);
  void run_compiled_schedule(Shard& sh);
  void settle_scc_local(Shard& sh, std::uint32_t scc_index);
  void settle_local(Shard& sh);
  void settle_local_worklist(Shard& sh);
  void seed_worklist_cycle(Shard& sh);
  void evaluate_all_local(Shard& sh);
  void apply_incoming(Shard& sh);
  void destabilize_local(Shard& sh, BlockId global);
  bool inputs_all_read(const Shard& sh, BlockId global) const;
  void fill_report(Shard& sh);
  template <typename F>
  void guarded(Shard& sh, F&& f);
  /// Two aligned barrier syncs shared by every schedule: agree on
  /// failure after the evaluation phase, then exchange and agree on
  /// global instability. Returns false when the cycle must be abandoned.
  bool exchange_round(Shard& sh);

  const SystemModel& model_;
  ShardedConfig cfg_;
  Partition part_;
  std::size_t boundary_links_ = 0;
  std::vector<std::size_t> local_of_;       // global block -> local index
  std::vector<std::size_t> link_home_;      // link -> authoritative shard
  std::vector<std::vector<std::size_t>> link_shards_;  // link -> replicas
  std::vector<std::size_t> slot_of_link_;   // link -> mailbox slot (or npos)

  std::unique_ptr<ShardMailbox> mailbox_;
  std::unique_ptr<ShardBarrier> barrier_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  bool stop_ = false;

  SystemCycle cycle_ = 0;
  DeltaCycle total_delta_cycles_ = 0;
  std::uint64_t total_supersteps_ = 0;
};

}  // namespace tmsim::core
