#include "core/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

namespace tmsim::core {
namespace {

constexpr std::size_t kNoSlot = ~std::size_t{0};
// Barrier-2 contribution encoding an exception during the exchange
// phase; far above any possible sum of unstable-block counts.
constexpr std::uint64_t kErrorSentinel = std::uint64_t{1} << 62;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardedSimulator::ShardedSimulator(const SystemModel& model,
                                   const ShardedConfig& cfg)
    : model_(model), cfg_(cfg) {
  TMSIM_CHECK_MSG(model.finalized(), "model must be finalized");
  TMSIM_CHECK_MSG(model.num_blocks() >= 1,
                  "sharded engine needs at least one block");
  TMSIM_CHECK_MSG(cfg.num_shards >= 1, "num_shards must be >= 1");
  TMSIM_CHECK_MSG(cfg.max_evals_per_block >= 1, "eval limit must be positive");
  if (cfg_.schedule == SchedulePolicy::kStatic) {
    TMSIM_CHECK_MSG(model.all_boundaries_registered(),
                    "static schedule requires registered boundaries (§4.1); "
                    "use kDynamic for combinational boundaries");
  }

  const std::size_t n = model.num_blocks();
  cfg_.num_shards = std::min(cfg_.num_shards, n);
  part_ = partition_blocks(model, cfg_.num_shards, cfg_.partition);
  const std::size_t k = part_.num_shards();

  local_of_.assign(n, 0);
  for (std::size_t s = 0; s < k; ++s) {
    for (std::size_t i = 0; i < part_.shards[s].size(); ++i) {
      local_of_[part_.shards[s][i]] = i;
    }
  }

  // Classify every link: which shards materialize it, who owns the
  // authoritative copy (the writer's shard, else the first reader's; an
  // orphan link parks in shard 0), and whether it crosses the cut (gets
  // a mailbox slot). A cut link is materialized on both sides: the
  // writer's copy does change detection, each reading shard's replica
  // carries that shard's HBR bit. One shard holds every link and cuts
  // none, so it skips the walk over the reader sets.
  slot_of_link_.assign(model.num_links(), kNoSlot);
  link_home_.assign(model.num_links(), 0);
  std::vector<std::size_t> slot_widths;
  std::vector<std::vector<char>> materialize(
      k, std::vector<char>(model.num_links(), k == 1 ? 1 : 0));
  for (LinkId l = 0; k > 1 && l < model.num_links(); ++l) {
    const LinkInfo& info = model.link(l);
    const std::size_t home =
        info.writer ? part_.shard_of[info.writer->block]
        : info.readers.empty() ? 0
                               : part_.shard_of[info.readers.front().block];
    link_home_[l] = home;
    materialize[home][l] = 1;
    bool crosses = false;
    for (const Endpoint& r : info.readers) {
      const std::size_t rs = part_.shard_of[r.block];
      materialize[rs][l] = 1;
      crosses = crosses || (info.writer && rs != home);
    }
    if (crosses) {
      slot_of_link_[l] = slot_widths.size();
      slot_widths.push_back(info.width);
    }
  }
  boundary_links_ = slot_widths.size();
  mailbox_ = std::make_unique<ShardMailbox>(slot_widths);
  barrier_ = std::make_unique<ShardBarrier>(k);

  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    const std::vector<BlockId>& blocks = part_.shards[s];
    std::vector<const SimBlock*> logic;
    logic.reserve(blocks.size());
    for (const BlockId b : blocks) {
      logic.push_back(model.block(b).logic.get());
    }
    auto sh = std::make_unique<Shard>(s, blocks, std::move(logic), model,
                                      materialize[s]);
    sh->unstable.assign(blocks.size(), 0);
    sh->evaluated.assign(blocks.size(), 0);
    sh->state_fixed.assign(blocks.size(), 0);
    sh->pending_input.assign(blocks.size(), 0);
    // A block may skip a cycle only if every link it touches is
    // combinational: registered banks would rot behind the pointer flip,
    // and registered inputs change without a change event.
    sh->skippable.assign(blocks.size(), 1);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const BlockInstance& blk = model.block(blocks[i]);
      for (const LinkId l : blk.input_links) {
        if (model.link(l).kind != LinkKind::kCombinational) {
          sh->skippable[i] = 0;
        }
      }
      for (const LinkId l : blk.output_links) {
        if (model.link(l).kind != LinkKind::kCombinational) {
          sh->skippable[i] = 0;
        }
      }
    }
    // Same-shard reader lists, counted then filled (CSR by link id).
    sh->reader_begin.assign(model.num_links() + 1, 0);
    for (LinkId l = 0; l < model.num_links(); ++l) {
      sh->reader_begin[l + 1] = sh->reader_begin[l];
      for (const Endpoint& r : model.link(l).readers) {
        sh->reader_begin[l + 1] += part_.shard_of[r.block] == s ? 1 : 0;
      }
    }
    sh->local_readers.resize(sh->reader_begin.back());
    for (LinkId l = 0; l < model.num_links(); ++l) {
      std::uint32_t at = sh->reader_begin[l];
      for (const Endpoint& r : model.link(l).readers) {
        if (part_.shard_of[r.block] == s) {
          sh->local_readers[at++] =
              static_cast<std::uint32_t>(local_of_[r.block]);
        }
      }
    }
    // Per-shard cursor rotation. Shard 0 takes the plain seed, so one
    // shard rotates exactly like the paper's engine; the others are
    // domain-separated by shard index so they do not all start at
    // congruent positions.
    const std::uint64_t seed = s == 0 || cfg_.schedule_seed == 1
                                   ? cfg_.schedule_seed
                                   : cfg_.schedule_seed + 0x9e37u * (s + 1);
    sh->rr_next = schedule_rr_offset(seed, blocks.size());
    sh->rr_init = sh->rr_next;
    if (cfg_.scheduler != SchedulerKind::kRoundRobin &&
        cfg_.schedule == SchedulePolicy::kDynamic) {
      // Per-shard static schedule over the link graph restricted to this
      // shard's membership (one shard schedules every block, so it needs
      // no filter). Cut links have one endpoint elsewhere, so they drop
      // out of the tracked set and the emitted order treats them as
      // registered edges; the superstep loop in cycle_compiled reconciles
      // them through the mailbox.
      analysis::StaticScheduleOptions opt;
      std::vector<char> member;
      if (k > 1) {
        member.assign(n, 0);
        for (const BlockId b : blocks) {
          member[b] = 1;
        }
        opt.include_blocks = &member;
      }
      sh->compiled.emplace(analysis::build_compiled_schedule(model, opt));
      sh->program.reserve(sh->compiled->ops.size());
      for (const analysis::CompiledOp& op : sh->compiled->ops) {
        sh->program.push_back(
            {op.kind, op.kind == analysis::CompiledOpKind::kSettle
                          ? op.scc
                          : static_cast<std::uint32_t>(local_of_[op.block])});
      }
    }
    shards_.push_back(std::move(sh));
  }

  // Subscribe each reading shard to its incoming cut links.
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const std::size_t slot = slot_of_link_[l];
    if (slot == kNoSlot) {
      continue;
    }
    const LinkInfo& info = model.link(l);
    const std::size_t writer_shard = part_.shard_of[info.writer->block];
    std::vector<char> subscribed(k, 0);
    for (const Endpoint& r : info.readers) {
      const std::size_t rs = part_.shard_of[r.block];
      if (rs == writer_shard || subscribed[rs]) {
        continue;
      }
      subscribed[rs] = 1;
      shards_[rs]->incoming.push_back(InSlot{l, slot, 0, info.kind});
    }
  }

  threads_.reserve(k - 1);
  for (std::size_t s = 1; s < k; ++s) {
    threads_.emplace_back([this, s] { worker_main(s); });
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!threads_.empty()) {
    stop_ = true;            // workers read this after the release barrier
    barrier_->sync(0);
    for (std::thread& t : threads_) {
      t.join();
    }
  }
}

void ShardedSimulator::worker_main(std::size_t s) {
  while (true) {
    barrier_->sync(0);  // wait for the coordinator's next command
    if (stop_) {
      return;
    }
    run_cycle(s);
  }
}

bool ShardedSimulator::write_copies(LinkId link, const BitVector& value) {
  // Workers are parked at the command barrier between steps, so writing
  // the authoritative copy and every reader replica directly is
  // race-free; the barrier's release/acquire pair publishes the values.
  const std::size_t home = link_home_[link];
  bool changed = shards_[home]->links.write(link, value);
  if (shards_.size() == 1) {
    return changed;  // one shard holds the only copy
  }
  for (const Endpoint& r : model_.link(link).readers) {
    const std::size_t s = part_.shard_of[r.block];
    if (s != home) {
      changed = shards_[s]->links.write(link, value) || changed;
    }
  }
  return changed;
}

void ShardedSimulator::set_external_input(LinkId link, const BitVector& value) {
  check_external_input(model_, link);
  if (write_copies(link, value)) {
    // The readers have fresh input: the compiled schedule's activity
    // gate must not skip them next cycle.
    for (const Endpoint& reader : model_.link(link).readers) {
      shards_[part_.shard_of[reader.block]]
          ->pending_input[local_of_[reader.block]] = 1;
    }
  }
}

const BitVector& ShardedSimulator::link_value(LinkId link) const {
  TMSIM_CHECK_MSG(link < model_.num_links(), "link index out of range");
  return shards_[link_home_[link]]->links.read(link);
}

const BitVector& ShardedSimulator::block_state(BlockId block) const {
  TMSIM_CHECK_MSG(block < model_.num_blocks(), "block index out of range");
  return shards_[part_.shard_of[block]]->state.old_word(local_of_[block]);
}

void ShardedSimulator::load_block_state(BlockId block, const BitVector& value) {
  TMSIM_CHECK_MSG(block < model_.num_blocks(), "block index out of range");
  Shard& sh = *shards_[part_.shard_of[block]];
  sh.state.load_old(local_of_[block], value);
  // The committed state changed behind the block's back: any cached
  // fixed-point claim is stale, so force a re-evaluation next cycle.
  sh.state_fixed[local_of_[block]] = 0;
}

void ShardedSimulator::load_link_value(LinkId link, const BitVector& value) {
  TMSIM_CHECK_MSG(link < model_.num_links(), "link index out of range");
  write_copies(link, value);
  const std::size_t slot = slot_of_link_[link];
  if (slot != kNoSlot) {
    // Re-publish through the mailbox too: a restore into an engine whose
    // previous cycle was abandoned mid-exchange would otherwise have a
    // stale slot version overwrite the restored replica at the next
    // poll. The delivery is idempotent — the replica already holds the
    // value, so the poll's change detection fires no destabilization.
    mailbox_->publish(slot, value);
  }
}

const analysis::CompiledSchedule* ShardedSimulator::compiled_schedule(
    std::size_t shard) const {
  TMSIM_CHECK_MSG(shard < shards_.size(), "shard index out of range");
  return shards_[shard]->compiled ? &*shards_[shard]->compiled : nullptr;
}

void ShardedSimulator::set_trace_hook(TraceHook hook) {
  TMSIM_CHECK_MSG(shards_.size() == 1,
                  "trace hooks need a one-shard engine (one delta order)");
  trace_ = std::move(hook);
}

SchedulerCheckpoint ShardedSimulator::scheduler_checkpoint() const {
  SchedulerCheckpoint s;
  s.rr_cursors.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& sh : shards_) {
    s.rr_cursors.push_back(sh->rr_next);
  }
  if (activity_gated()) {
    // Scatter the per-shard activity flags back to model block order so
    // the snapshot is partition-independent.
    s.state_fixed.assign(model_.num_blocks(), 0);
    s.pending_input.assign(model_.num_blocks(), 0);
    for (const std::unique_ptr<Shard>& sh : shards_) {
      for (std::size_t i = 0; i < sh->blocks.size(); ++i) {
        s.state_fixed[sh->blocks[i]] = sh->state_fixed[i];
        s.pending_input[sh->blocks[i]] = sh->pending_input[i];
      }
    }
  }
  return s;
}

void ShardedSimulator::restore_scheduler_state(
    const SchedulerCheckpoint& sched) {
  // Workers are parked at the command barrier; direct writes are
  // race-free. A snapshot whose shape does not match (different shard
  // count, different model, or empty) canonicalizes: cursors back to
  // their seeded offsets, flags cleared — committed results cannot
  // depend on this by the engine contract, only StepStats can.
  const bool cursors_ok = sched.rr_cursors.size() == shards_.size();
  const bool flags_ok =
      sched.state_fixed.size() == model_.num_blocks() &&
      sched.pending_input.size() == model_.num_blocks();
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& sh = *shards_[si];
    const std::size_t ln = sh.blocks.size();
    sh.rr_next = (cursors_ok && ln > 0 && sched.rr_cursors[si] < ln)
                     ? sched.rr_cursors[si]
                     : sh.rr_init;
    if (activity_gated()) {
      for (std::size_t i = 0; i < ln; ++i) {
        sh.state_fixed[i] = flags_ok ? sched.state_fixed[sh.blocks[i]] : 0;
        sh.pending_input[i] = flags_ok ? sched.pending_input[sh.blocks[i]] : 0;
      }
    }
  }
}

StepStats ShardedSimulator::step() {
  barrier_->sync(0);  // release the workers into this cycle
  run_cycle(0);
  // run_cycle ends with a barrier, so every shard is quiescent and its
  // outcome fields are visible here.
  for (const std::unique_ptr<Shard>& sh : shards_) {
    if (sh->error) {
      std::rethrow_exception(sh->error);
    }
  }
  bool failed = false;
  for (const std::unique_ptr<Shard>& sh : shards_) {
    failed = failed || sh->cycle_failed;
  }
  if (failed) {
    ConvergenceReport r;
    r.cycle = cycle_;
    r.num_blocks = model_.num_blocks();
    for (const std::unique_ptr<Shard>& sh : shards_) {
      r.delta_cycles += sh->report.delta_cycles;
      r.limit += sh->report.limit;
      r.link_changes += sh->report.link_changes;
      r.oscillating_blocks.insert(r.oscillating_blocks.end(),
                                  sh->report.oscillating_blocks.begin(),
                                  sh->report.oscillating_blocks.end());
    }
    std::sort(r.oscillating_blocks.begin(), r.oscillating_blocks.end());
    r.oscillating_blocks.erase(
        std::unique(r.oscillating_blocks.begin(), r.oscillating_blocks.end()),
        r.oscillating_blocks.end());
    // Merge the per-shard changed-link histories the way the sequential
    // engine's single history reads: newest first. True global ordering
    // is gone (the shards ran concurrently), so interleave round-robin
    // by recency depth — every shard's most recent change outranks any
    // shard's second-most-recent — which is deterministic for a given
    // partition. Dedup (a cut link can appear in both the writer's and a
    // reader's history) and cap at the same bound the sequential report
    // carries.
    for (std::size_t depth = 0;; ++depth) {
      bool any = false;
      for (const std::unique_ptr<Shard>& sh : shards_) {
        const std::vector<LinkId>& hist = sh->report.last_changed_links;
        if (depth >= hist.size()) {
          continue;
        }
        any = true;
        if (std::find(r.last_changed_links.begin(), r.last_changed_links.end(),
                      hist[depth]) == r.last_changed_links.end()) {
          r.last_changed_links.push_back(hist[depth]);
        }
      }
      if (!any || r.last_changed_links.size() >= Shard::kChangedLinkHistory) {
        break;
      }
    }
    if (r.last_changed_links.size() > Shard::kChangedLinkHistory) {
      r.last_changed_links.resize(Shard::kChangedLinkHistory);
    }
    if (observer_) {
      observer_->on_convergence_failure(*this, r);
    }
    throw ConvergenceError(r);
  }

  StepStats total;
  std::uint64_t first_evals = 0;
  for (const std::unique_ptr<Shard>& sh : shards_) {
    total.delta_cycles += sh->stats.delta_cycles;
    total.link_changes += sh->stats.link_changes;
    total.cut_publishes += sh->stats.cut_publishes;
    total.barrier_spins += sh->stats.barrier_spins;
    first_evals += sh->first_evals;
  }
  // Explicit first-evaluation accounting, identical under every schedule
  // and scheduler: re-evaluations are delta cycles beyond each block's
  // first, and every block without a first evaluation was skipped — so
  // skipped_blocks + first evaluations == num_blocks, every cycle.
  total.re_evaluations = total.delta_cycles - first_evals;
  total.skipped_blocks = model_.num_blocks() - first_evals;
  // Every shard executes the same number of barrier-aligned supersteps.
  total.settle_rounds = shards_[0]->supersteps;
  total_delta_cycles_ += total.delta_cycles;
  total_supersteps_ += shards_[0]->supersteps;
  ++cycle_;
  if (observer_) {
    observer_->on_cycle_commit(*this, total);
  }
  return total;
}

void ShardedSimulator::rebase(SystemCycle cycle, DeltaCycle total_deltas) {
  cycle_ = cycle;
  total_delta_cycles_ = total_deltas;
}

void ShardedSimulator::run_cycle(std::size_t s) {
  Shard& sh = *shards_[s];
  sh.stats = StepStats{};
  sh.diverged = false;
  sh.fail_limit = 0;
  sh.cycle_failed = false;
  sh.supersteps = 0;
  sh.error = nullptr;
  sh.report = ConvergenceReport{};
  sh.recent_changed_count = 0;
  std::fill(sh.evaluated.begin(), sh.evaluated.end(), 0);
  sh.first_evals = 0;
  if (observer_) {
    sh.mark_ns = steady_ns();
  }
  switch (cfg_.schedule) {
    case SchedulePolicy::kStatic:
      cycle_static(sh);
      break;
    case SchedulePolicy::kDynamic:
      cycle_dynamic(sh);
      break;
    case SchedulePolicy::kTwoPhaseOracle:
      cycle_two_phase(sh);
      break;
  }
  if (!sh.cycle_failed) {
    // End of system cycle, shard-locally: pointer-flip the state banks
    // and registered link banks (§4.1). On a failed cycle the engine is
    // left un-flipped, matching the sequential engine's throw path.
    sh.state.swap_banks();
    sh.links.swap_registered_banks();
  } else {
    fill_report(sh);
  }
  barrier_->sync(0);  // cycle complete; the coordinator aggregates next
}

void ShardedSimulator::cycle_static(Shard& sh) {
  guarded(sh, [&] {
    std::fill(sh.unstable.begin(), sh.unstable.end(), 0);
    sh.unstable_count = 0;
    evaluate_all_local(sh);
  });
  exchange_round(sh);
}

void ShardedSimulator::cycle_dynamic(Shard& sh) {
  if (sh.compiled) {
    cycle_compiled(sh);
    return;
  }
  guarded(sh, [&] {
    sh.links.reset_all_hbr();
    std::fill(sh.unstable.begin(), sh.unstable.end(), 1);
    sh.unstable_count = sh.blocks.size();
  });
  // Belt-and-braces superstep cap: the per-shard evaluation budget in
  // settle_local() already guarantees termination (an oscillation keeps
  // at least one shard evaluating every round), this bounds rounds too.
  const std::size_t superstep_cap =
      cfg_.max_evals_per_block * model_.num_blocks();
  while (true) {
    guarded(sh, [&] { settle_local(sh); });
    if (sh.supersteps >= superstep_cap) {
      diverge(sh, cfg_.max_evals_per_block * sh.blocks.size());
    }
    const bool more = exchange_round(sh);
    if (sh.cycle_failed || !more) {
      return;
    }
  }
}

void ShardedSimulator::cycle_two_phase(Shard& sh) {
  // Ablation schedule, same contract as the sequential engine: correct
  // only for designs whose outputs depend on registered state alone.
  // Pass 1 publishes every output (final, under that contract); the
  // exchange delivers cut-link values; pass 2 recomputes every next
  // state from final link values.
  guarded(sh, [&] {
    sh.links.reset_all_hbr();
    std::fill(sh.unstable.begin(), sh.unstable.end(), 0);
    sh.unstable_count = 0;
  });
  for (int pass = 0; pass < 2; ++pass) {
    guarded(sh, [&] { evaluate_all_local(sh); });
    exchange_round(sh);
    if (sh.cycle_failed) {
      return;
    }
  }
}

void ShardedSimulator::cycle_compiled(Shard& sh) {
  // Compiled superstep loop: each phase A replays the shard's build-time
  // schedule against the latest replica values — no HBR bits, no
  // per-block destabilization across the cut. Phase B's deliveries mark
  // readers unstable so barrier 2 can agree on "someone received a
  // changed cut value", and mark their pending input so the next phase
  // A's activity gate re-runs exactly them and what they change.
  // Cross-shard combinational chains converge in one extra superstep per
  // cut depth (a block-Jacobi sweep toward the same unique fixed point
  // the sequential schedule reaches); a genuinely oscillating cross-shard
  // loop ping-pongs to the superstep cap and diverges.
  const std::size_t superstep_cap =
      cfg_.max_evals_per_block * model_.num_blocks();
  while (true) {
    guarded(sh, [&] {
      std::fill(sh.unstable.begin(), sh.unstable.end(), 0);
      sh.unstable_count = 0;
      run_compiled_schedule(sh);
    });
    if (sh.supersteps >= superstep_cap) {
      diverge(sh, cfg_.max_evals_per_block * sh.blocks.size());
    }
    const bool more = exchange_round(sh);
    if (sh.cycle_failed || !more) {
      return;
    }
  }
}

void ShardedSimulator::run_compiled_schedule(Shard& sh) {
  // kEval and kDrive run identically at execution time (the split only
  // matters for the emission proof, see static_schedule.h), and both are
  // gated on activity. An evaluation is a pure function of the block's
  // committed state and its inputs, and its effects — outputs and the
  // new state slot — stay in place until the block itself evaluates
  // again. So with no input change since the block's last evaluation,
  // an op may be skipped when
  //  (a) that evaluation happened this cycle: it would be reproduced
  //      exactly (a kEval after its kDrive, a replay superstep); or
  //  (b) the block touches combinational links only and that evaluation
  //      mapped its state onto itself: last cycle's outputs are still on
  //      the links, and carrying the state over at the block's kEval
  //      commits the same state (a kDrive has no state to commit).
  for (const LocalOp& op : sh.program) {
    if (op.kind == analysis::CompiledOpKind::kSettle) {
      settle_scc_local(sh, op.index);
      if (sh.diverged) {
        return;
      }
      continue;
    }
    const std::size_t i = op.index;
    if (!sh.pending_input[i]) {
      if (sh.evaluated[i]) {
        continue;
      }
      if (sh.skippable[i] && sh.state_fixed[i]) {
        if (op.kind == analysis::CompiledOpKind::kEval) {
          sh.state.carry_over(i);
        }
        continue;
      }
    }
    evaluate_block(sh, i);
  }
}

void ShardedSimulator::settle_scc_local(Shard& sh, std::uint32_t scc_index) {
  // Scoped worklist over one strongly connected component, confined to
  // this shard (tracked links need both endpoints in the shard, so an
  // SCC can never straddle the cut). Mirrors the sequential engine's
  // settle_scc, with the cooperative divergence protocol instead of a
  // throw: leave the members' unstable bits set for the merged report.
  const analysis::CompiledScc& scc = sh.compiled->sccs[scc_index];
  const std::size_t m = scc.blocks.size();
  sh.scc_unstable.assign(m, 1);
  std::size_t remaining = m;
  for (const BlockId b : scc.blocks) {
    sh.unstable[local_of_[b]] = 1;  // report mirror, not counted
  }
  const DeltaCycle limit = cfg_.max_evals_per_block * m;
  CompiledSettleCtx ctx{&scc, scc_index + 1, &sh.scc_unstable, &remaining};
  std::size_t cursor = 0;
  DeltaCycle spent = 0;
  while (remaining > 0) {
    // Bounded cursor scan: a desynchronized remaining-count with an
    // all-zero bitmap must fail structurally, not spin (same guard as
    // the dense round-robin in settle_local).
    std::size_t scanned = 0;
    while (sh.scc_unstable[cursor] == 0) {
      cursor = (cursor + 1) % m;
      if (++scanned > m) {
        diverge(sh, limit);
        return;
      }
    }
    const std::size_t mi = cursor;
    cursor = (cursor + 1) % m;
    sh.scc_unstable[mi] = 0;
    --remaining;
    evaluate_block(sh, local_of_[scc.blocks[mi]], &ctx);
    if (++spent > limit) {
      diverge(sh, limit);
      return;
    }
  }
  for (const BlockId b : scc.blocks) {
    sh.unstable[local_of_[b]] = 0;
  }
}

bool ShardedSimulator::exchange_round(Shard& sh) {
  ++sh.supersteps;
  // Observer timing: the settle/evaluation phase ran since mark_ns; the
  // two barriers plus the exchange form the synchronization tail.
  const std::uint64_t settle_end_ns = observer_ ? steady_ns() : 0;
  // Barrier 1: agree whether any shard diverged or threw during the
  // evaluation phase. Every shard sees the same sum, so every shard
  // abandons the cycle at the same point — no worker is left behind at
  // a barrier the others will never reach.
  const std::uint64_t failures =
      barrier_->sync((sh.diverged || sh.error) ? 1 : 0, &sh.stats.barrier_spins);
  if (failures > 0) {
    sh.cycle_failed = true;
    return false;
  }
  guarded(sh, [&] { apply_incoming(sh); });
  // Barrier 2: agree on the number of unstable blocks anywhere (with a
  // sentinel for exchange-phase errors). Zero means the system-wide
  // link fixed point is reached.
  const std::uint64_t unstable = barrier_->sync(
      sh.error ? kErrorSentinel : sh.unstable_count, &sh.stats.barrier_spins);
  if (observer_) {
    // Called from every worker thread concurrently; SimObserver
    // implementations synchronize internally.
    const std::uint64_t end_ns = steady_ns();
    observer_->on_superstep(sh.index, total_supersteps_ + sh.supersteps - 1,
                            settle_end_ns - sh.mark_ns,
                            end_ns - settle_end_ns);
    sh.mark_ns = end_ns;
  }
  if (unstable >= kErrorSentinel) {
    sh.cycle_failed = true;
    return false;
  }
  return unstable != 0;
}

void ShardedSimulator::settle_local(Shard& sh) {
  const std::size_t ln = sh.blocks.size();
  const DeltaCycle budget = cfg_.max_evals_per_block * ln;
  while (sh.unstable_count > 0) {
    // Local §4.2 round-robin over this shard's non-stable blocks. The
    // scan is bounded: unstable_count > 0 with an all-zero bitmap is a
    // bookkeeping desync, and a full lap proves it — fail the cycle
    // structurally instead of spinning on the cursor forever.
    std::size_t scanned = 0;
    while (sh.unstable[sh.rr_next] == 0) {
      sh.rr_next = (sh.rr_next + 1) % ln;
      if (++scanned > ln) {
        diverge(sh, budget);
        return;
      }
    }
    const std::size_t i = sh.rr_next;
    sh.rr_next = (sh.rr_next + 1) % ln;
    sh.unstable[i] = 0;
    --sh.unstable_count;

    evaluate_block(sh, i);

    // Self-loop safety, as in the sequential engine: re-check the HBR
    // bits directly so a bookkeeping bug cannot end a cycle early.
    if (sh.unstable[i] == 0 && !inputs_all_read(sh, sh.blocks[i])) {
      destabilize_local(sh, i);
    }
    if (sh.stats.delta_cycles > budget) {
      diverge(sh, budget);
      return;
    }
  }
}

void ShardedSimulator::evaluate_all_local(Shard& sh) {
  for (std::size_t i = 0; i < sh.blocks.size(); ++i) {
    evaluate_block(sh, i);
  }
}

void ShardedSimulator::evaluate_block(Shard& sh, std::size_t local,
                                      const CompiledSettleCtx* ctx) {
  // Under the compiled schedule the op order already guarantees every
  // input a committing evaluation consumes is final: no HBR marks and no
  // same-shard destabilization (which would keep unstable_count nonzero
  // forever), except the scoped wakeups inside a settling SCC. Changed
  // writes only mark their readers' pending input for the activity gate.
  const bool hbr = !sh.compiled;
  // Everything pending is consumed by this evaluation; activity that
  // arrives later (same-shard writes below, phase B deliveries, external
  // inputs) re-marks it.
  sh.pending_input[local] = 0;
  const BlockId b = sh.blocks[local];
  const BlockInstance& blk = model_.block(b);
  const SimBlock& logic = *blk.logic;
  const std::size_t n_in = logic.num_inputs();
  const std::size_t n_out = logic.num_outputs();

  if (sh.in_scratch.size() < n_in) {
    sh.in_scratch.resize(n_in, BitVector(0));
  }
  if (sh.out_scratch.size() < n_out) {
    sh.out_scratch.resize(n_out, BitVector(0));
  }

  // Latch inputs from the shard-local LinkMemory (cut links read the
  // local replica) and set their HBR bits: a later changed write to any
  // of them must destabilize this block.
  for (std::size_t p = 0; p < n_in; ++p) {
    const LinkId l = blk.input_links[p];
    sh.in_scratch[p] = sh.links.read(l);
    if (hbr && model_.link(l).kind == LinkKind::kCombinational) {
      sh.links.mark_read(l);
    }
  }

  for (std::size_t p = 0; p < n_out; ++p) {
    if (sh.out_scratch[p].width() != logic.output_width(p)) {
      sh.out_scratch[p] = BitVector(logic.output_width(p));
    }
  }

  // Re-evaluation (or a compiled drive op) overwrites the new slot in
  // place; the last evaluation of the cycle is the committed one.
  logic.evaluate_state(sh.state.read_old(local),
                       std::span<const BitVector>(sh.in_scratch.data(), n_in),
                       sh.state.new_slot(local),
                       std::span<BitVector>(sh.out_scratch.data(), n_out));

  if (!hbr && sh.skippable[local]) {
    // State fixed point: a pure evaluation that mapped old == new will
    // reproduce this exact evaluation as long as the inputs stay put —
    // the precondition of the activity gate's cross-cycle skip.
    sh.state_fixed[local] = sh.state.new_equals_old(local) ? 1 : 0;
  }

  for (std::size_t p = 0; p < n_out; ++p) {
    const LinkId l = blk.output_links[p];
    // Only a combinational write can report a change (registered writes
    // go to the new bank and never destabilize, §4.1).
    const bool changed = sh.links.write(l, sh.out_scratch[p]);
    if (changed) {
      ++sh.stats.link_changes;
      sh.recent_changed_links[sh.recent_changed_count++ %
                              Shard::kChangedLinkHistory] = l;
      if (hbr) {
        // "if the router writes a value to a link, which is not equal to
        //  the current value in the memory, it will reset this link's
        //  status bit to zero" — destabilizing the reader. Same-shard
        //  readers at once, cross-shard ones at their next exchange.
        sh.links.clear_hbr(l);
        for (std::uint32_t k = sh.reader_begin[l]; k < sh.reader_begin[l + 1];
             ++k) {
          destabilize_local(sh, sh.local_readers[k]);
        }
      } else {
        for (std::uint32_t k = sh.reader_begin[l]; k < sh.reader_begin[l + 1];
             ++k) {
          sh.pending_input[sh.local_readers[k]] = 1;
        }
      }
      if (ctx && sh.compiled->scc_of_link[l] == ctx->scc_id) {
        // Intra-SCC edge changed mid-settle: wake the (single) reader.
        const BlockId r = model_.link(l).readers.front().block;
        const auto it = std::lower_bound(ctx->scc->blocks.begin(),
                                         ctx->scc->blocks.end(), r);
        const std::size_t mi =
            static_cast<std::size_t>(it - ctx->scc->blocks.begin());
        if (!(*ctx->unstable)[mi]) {
          (*ctx->unstable)[mi] = 1;
          ++*ctx->remaining;
        }
        sh.unstable[local_of_[r]] = 1;  // report mirror
      }
    }
    // Cut links publish every changed combinational write, and every
    // registered write — re-evaluation may rewrite the new bank, and the
    // reader's replica must converge to the final value.
    const std::size_t slot = slot_of_link_[l];
    if (slot != kNoSlot &&
        (changed || model_.link(l).kind == LinkKind::kRegistered)) {
      mailbox_->publish(slot, sh.out_scratch[p]);
      ++sh.stats.cut_publishes;
    }
  }

  if (!sh.evaluated[local]) {
    sh.evaluated[local] = 1;
    ++sh.first_evals;
  }
  ++sh.stats.delta_cycles;
  if (trace_) {
    trace_(cycle_, sh.stats.delta_cycles - 1, b);
  }
}

void ShardedSimulator::apply_incoming(Shard& sh) {
  for (InSlot& in : sh.incoming) {
    if (!mailbox_->poll(in.slot, in.last_seen, sh.poll_scratch)) {
      continue;
    }
    const bool changed = sh.links.write(in.link, sh.poll_scratch);
    if (in.kind == LinkKind::kCombinational && changed) {
      // The replica changed under this shard's readers: the §4.2 rule,
      // one superstep late. link_changes was already counted by the
      // writing shard — don't double count here.
      sh.links.clear_hbr(in.link);
      for (std::uint32_t k = sh.reader_begin[in.link];
           k < sh.reader_begin[in.link + 1]; ++k) {
        destabilize_local(sh, sh.local_readers[k]);
      }
    }
  }
}

void ShardedSimulator::destabilize_local(Shard& sh, std::size_t local) {
  sh.pending_input[local] = 1;
  if (sh.unstable[local] == 0) {
    sh.unstable[local] = 1;
    ++sh.unstable_count;
  }
}

bool ShardedSimulator::inputs_all_read(const Shard& sh, BlockId global) const {
  const BlockInstance& blk = model_.block(global);
  for (const LinkId l : blk.input_links) {
    if (model_.link(l).kind == LinkKind::kCombinational &&
        !sh.links.has_been_read(l)) {
      return false;
    }
  }
  return true;
}

void ShardedSimulator::diverge(Shard& sh, DeltaCycle limit) {
  sh.diverged = true;
  sh.fail_limit = limit;
}

void ShardedSimulator::fill_report(Shard& sh) {
  sh.report.delta_cycles = sh.stats.delta_cycles;
  sh.report.limit = sh.fail_limit;
  sh.report.num_blocks = sh.blocks.size();
  sh.report.link_changes = sh.stats.link_changes;
  for (std::size_t i = 0; i < sh.blocks.size(); ++i) {
    if (sh.unstable[i]) {
      sh.report.oscillating_blocks.push_back(sh.blocks[i]);
    }
  }
  // A cycle can fail at the divergence barrier before the exchange
  // applies pending cut-link changes. The local readers of those links
  // are the cross-shard half of the oscillation — the sequential engine
  // would already have them marked unstable at trip time. Every
  // producer is quiescent past that barrier, so the versions are final.
  for (const InSlot& in : sh.incoming) {
    if (in.kind != LinkKind::kCombinational ||
        mailbox_->version(in.slot) == in.last_seen) {
      continue;
    }
    for (const Endpoint& r : model_.link(in.link).readers) {
      if (part_.shard_of[r.block] == sh.index &&
          !sh.unstable[local_of_[r.block]]) {
        sh.unstable[local_of_[r.block]] = 1;
        sh.report.oscillating_blocks.push_back(r.block);
      }
    }
  }
  const std::size_t have =
      std::min(sh.recent_changed_count, Shard::kChangedLinkHistory);
  for (std::size_t i = 0; i < have; ++i) {
    sh.report.last_changed_links.push_back(
        sh.recent_changed_links[(sh.recent_changed_count - 1 - i) %
                                Shard::kChangedLinkHistory]);
  }
}

template <typename F>
void ShardedSimulator::guarded(Shard& sh, F&& f) {
  if (sh.error) {
    return;  // already broken; only keep the barrier protocol aligned
  }
  try {
    std::forward<F>(f)();
  } catch (...) {
    sh.error = std::current_exception();
  }
}

}  // namespace tmsim::core
