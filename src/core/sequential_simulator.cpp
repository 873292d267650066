#include "core/sequential_simulator.h"

#include <algorithm>
#include <string>
#include <utility>

namespace tmsim::core {

SequentialSimulator::SequentialSimulator(const SystemModel& model,
                                         SchedulePolicy policy,
                                         std::size_t max_evals_per_block,
                                         std::uint64_t schedule_seed,
                                         SchedulerKind scheduler)
    : model_(model),
      policy_(policy),
      max_evals_per_block_(max_evals_per_block),
      scheduler_(scheduler),
      state_(block_logic(model)),
      links_(model) {
  TMSIM_CHECK_MSG(model.finalized(), "model must be finalized");
  TMSIM_CHECK_MSG(max_evals_per_block >= 1, "eval limit must be positive");
  if (policy_ == SchedulePolicy::kStatic) {
    TMSIM_CHECK_MSG(model.all_boundaries_registered(),
                    "static schedule requires registered boundaries (§4.1); "
                    "use kDynamic for combinational boundaries");
  }
  check_scheduler_topology(model, scheduler_);
  unstable_.assign(model.num_blocks(), 0);
  evaluated_.assign(model.num_blocks(), 0);
  rr_init_ = schedule_rr_offset(schedule_seed, model.num_blocks());
  rr_next_ = rr_init_;
  if (scheduler_ == SchedulerKind::kCompiled &&
      policy_ == SchedulePolicy::kDynamic) {
    // The whole point of kCompiled: pay for the schedule once, here.
    compiled_ = analysis::build_compiled_schedule(model);
  }
  if (scheduler_ == SchedulerKind::kWorklist) {
    worklist_.reserve(model.num_blocks());
    // A block is skippable only when every link it touches is
    // combinational: registered links are double-banked, so a skipped
    // write would leave a stale bank behind the pointer flip, and a
    // registered input changes under the reader without a change event.
    skippable_.assign(model.num_blocks(), 1);
    for (BlockId b = 0; b < model.num_blocks(); ++b) {
      const BlockInstance& blk = model.block(b);
      for (const LinkId l : blk.input_links) {
        if (model.link(l).kind != LinkKind::kCombinational) {
          skippable_[b] = 0;
        }
      }
      for (const LinkId l : blk.output_links) {
        if (model.link(l).kind != LinkKind::kCombinational) {
          skippable_[b] = 0;
        }
      }
    }
    state_fixed_.assign(model.num_blocks(), 0);
    pending_input_.assign(model.num_blocks(), 0);
  }
}

void SequentialSimulator::rebase(SystemCycle cycle, DeltaCycle total_deltas) {
  cycle_ = cycle;
  total_delta_cycles_ = total_deltas;
}

SchedulerCheckpoint SequentialSimulator::scheduler_checkpoint() const {
  SchedulerCheckpoint s;
  if (scheduler_ == SchedulerKind::kCompiled) {
    return s;  // a static schedule has no dynamic scheduling state
  }
  s.rr_cursors.push_back(rr_next_);
  if (scheduler_ == SchedulerKind::kWorklist) {
    s.state_fixed = state_fixed_;
    s.pending_input = pending_input_;
  }
  return s;
}

void SequentialSimulator::restore_scheduler_state(
    const SchedulerCheckpoint& sched) {
  const std::size_t n = model_.num_blocks();
  // Canonicalize on shape mismatch (cross-engine restore, empty
  // snapshot): cursor back to the seeded offset, flags conservative.
  rr_next_ = (sched.rr_cursors.size() == 1 && sched.rr_cursors[0] < n)
                 ? sched.rr_cursors[0]
                 : rr_init_;
  if (scheduler_ == SchedulerKind::kWorklist) {
    state_fixed_ = sched.state_fixed.size() == n ? sched.state_fixed
                                                 : std::vector<char>(n, 0);
    pending_input_ = sched.pending_input.size() == n
                         ? sched.pending_input
                         : std::vector<char>(n, 0);
  }
}

void SequentialSimulator::set_external_input(LinkId link,
                                             const BitVector& value) {
  check_external_input(model_, link);
  const bool changed = links_.write(link, value);
  if (changed && scheduler_ == SchedulerKind::kWorklist) {
    // Input activity: the quiescence fast path must not skip the
    // readers of a freshly driven stimulus next cycle.
    for (const Endpoint& reader : model_.link(link).readers) {
      pending_input_[reader.block] = 1;
    }
  }
}

const BitVector& SequentialSimulator::link_value(LinkId link) const {
  return links_.read(link);
}

const BitVector& SequentialSimulator::block_state(BlockId block) const {
  return state_.old_word(block);
}

void SequentialSimulator::load_block_state(BlockId block,
                                           const BitVector& value) {
  state_.load_old(block, value);
  if (scheduler_ == SchedulerKind::kWorklist && !state_fixed_.empty()) {
    // The committed state moved under the quiescence bookkeeping
    // (checkpoint restore, reset, test preloading): the block's last
    // evaluation no longer witnesses a fixed point. A full checkpoint
    // restore re-applies the flags afterwards, together with the link
    // snapshot that makes them sound again.
    state_fixed_[block] = 0;
  }
}

void SequentialSimulator::load_link_value(LinkId link, const BitVector& value) {
  TMSIM_CHECK_MSG(link < model_.num_links(), "link index out of range");
  links_.write(link, value);
}

StepStats SequentialSimulator::step() {
  StepStats stats;
  switch (policy_) {
    case SchedulePolicy::kStatic:
      stats = step_static();
      break;
    case SchedulePolicy::kDynamic:
      stats = scheduler_ == SchedulerKind::kWorklist ? step_dynamic_worklist()
              : scheduler_ == SchedulerKind::kCompiled ? step_compiled()
                                                       : step_dynamic();
      break;
    case SchedulePolicy::kTwoPhaseOracle:
      stats = step_two_phase();
      break;
  }
  end_of_cycle();
  if (observer_) {
    observer_->on_cycle_commit(*this, stats);
  }
  return stats;
}

void SequentialSimulator::begin_eval_accounting() {
  std::fill(evaluated_.begin(), evaluated_.end(), 0);
  first_evals_ = 0;
}

void SequentialSimulator::note_first_eval(BlockId b) {
  if (!evaluated_[b]) {
    evaluated_[b] = 1;
    ++first_evals_;
  }
}

void SequentialSimulator::fail_convergence(const StepStats& stats,
                                           DeltaCycle limit) {
  ConvergenceReport report = make_convergence_report(stats, limit);
  if (observer_) {
    observer_->on_convergence_failure(*this, report);
  }
  throw ConvergenceError(std::move(report));
}

StepStats SequentialSimulator::step_static() {
  // §4.1: "The order in which the circuitry is evaluated to calculate new
  // register values can be arbitrary" — we use block index order.
  StepStats stats;
  begin_eval_accounting();
  for (BlockId b = 0; b < model_.num_blocks(); ++b) {
    evaluate_block(b, stats);
  }
  stats.re_evaluations = stats.delta_cycles - first_evals_;
  return stats;
}

StepStats SequentialSimulator::step_dynamic() {
  StepStats stats;
  const std::size_t n = model_.num_blocks();

  // "Every system cycle is started by resetting all status bits to zero.
  //  [...] it is guaranteed that all routers are evaluated at least once."
  links_.reset_all_hbr();
  std::fill(unstable_.begin(), unstable_.end(), 1);
  unstable_count_ = n;
  recent_changed_count_ = 0;
  begin_eval_accounting();

  const DeltaCycle limit = max_evals_per_block_ * n;
  while (unstable_count_ > 0) {
    // "A simple round-robin scheduler will decide which non-stable router
    //  has to be evaluated." The scan is bounded at one full lap: if the
    //  count says work remains but a lap over the bitmap finds no flagged
    //  block, the two have desynced (a hostile block mutated engine
    //  bookkeeping, memory corruption, ...) and spinning forever would
    //  hide it — fail with the structured report instead.
    std::size_t scanned = 0;
    while (unstable_[rr_next_] == 0) {
      rr_next_ = (rr_next_ + 1) % n;
      if (++scanned > n) {
        fail_convergence(stats, limit);
      }
    }
    const BlockId b = rr_next_;
    rr_next_ = (rr_next_ + 1) % n;
    unstable_[b] = 0;
    --unstable_count_;

    evaluate_block(b, stats);

    // Self-loop safety: if b drives one of its own inputs and changed it,
    // the write path has already destabilized b; this re-checks the HBR
    // bits directly so a bookkeeping bug cannot end a cycle early.
    if (unstable_[b] == 0 && !inputs_all_read(b)) {
      destabilize(b);
    }

    if (stats.delta_cycles > limit) {
      fail_convergence(stats, limit);
    }
  }
  stats.re_evaluations = stats.delta_cycles - first_evals_;
  return stats;
}

StepStats SequentialSimulator::step_dynamic_worklist() {
  StepStats stats;
  const std::size_t n = model_.num_blocks();

  links_.reset_all_hbr();
  recent_changed_count_ = 0;
  begin_eval_accounting();
  worklist_.clear();
  wl_head_ = 0;

  // Quiescence fast path: a block whose last committed evaluation was a
  // state fixed point (new == old) and whose inputs have not changed
  // since would reproduce last cycle's outputs and state bit-for-bit —
  // re-running it is pure §4.2 overhead, so it is not queued at all.
  // Its committed state is carried across the bank swap instead.
  // Everything else seeds the worklist in block order, which makes the
  // first sweep identical to the round-robin scheduler's first sweep at
  // the canonical cursor.
  for (BlockId b = 0; b < n; ++b) {
    if (skippable_[b] && state_fixed_[b] && !pending_input_[b]) {
      state_.carry_over(b);
      ++stats.skipped_blocks;
      unstable_[b] = 0;
    } else {
      unstable_[b] = 1;
      worklist_.push_back(b);
    }
  }
  unstable_count_ = worklist_.size();
  wl_high_water_ = worklist_.size();

  const DeltaCycle limit = max_evals_per_block_ * n;
  while (wl_head_ < worklist_.size()) {
    const BlockId b = worklist_[wl_head_++];
    unstable_[b] = 0;
    --unstable_count_;

    evaluate_block(b, stats);

    if (stats.delta_cycles > limit) {
      fail_convergence(stats, limit);
    }
  }
  stats.worklist_high_water = wl_high_water_;
  stats.re_evaluations = stats.delta_cycles - first_evals_;
  return stats;
}

StepStats SequentialSimulator::step_compiled() {
  // The op list is the whole scheduler: no HBR resets, no unstable
  // bitmap, no worklist. Acyclic regions evaluate in the precomputed
  // order exactly once (plus the planned early drives); true cycles
  // settle in their scoped SCC worklists.
  StepStats stats;
  recent_changed_count_ = 0;
  begin_eval_accounting();
  const analysis::CompiledSchedule& sched = *compiled_;
  for (const analysis::CompiledOp& op : sched.ops) {
    if (op.kind == analysis::CompiledOpKind::kSettle) {
      settle_scc(op.scc, stats);
    } else {
      evaluate_block_compiled(op.block, stats, nullptr);
    }
  }
  stats.re_evaluations = stats.delta_cycles - first_evals_;
  return stats;
}

void SequentialSimulator::settle_scc(std::uint32_t scc_index,
                                     StepStats& stats) {
  const analysis::CompiledScc& scc = compiled_->sccs[scc_index];
  const std::size_t m = scc.blocks.size();
  scc_unstable_.assign(m, 1);
  for (BlockId b : scc.blocks) {
    unstable_[b] = 1;  // mirrored for the convergence report
  }
  std::size_t remaining = m;
  std::size_t cursor = 0;
  // Same convergence contract as the dynamic schedulers, scoped to the
  // SCC: each member gets max_evals_per_block_ evaluations to settle.
  const DeltaCycle limit = max_evals_per_block_ * m;
  DeltaCycle spent = 0;
  SettleCtx ctx{&scc, scc_index + 1, &scc_unstable_, &remaining};
  while (remaining > 0) {
    std::size_t scanned = 0;
    while (scc_unstable_[cursor] == 0) {
      cursor = (cursor + 1) % m;
      if (++scanned > m) {
        fail_convergence(stats, limit);  // bitmap/count desync
      }
    }
    const std::size_t i = cursor;
    cursor = (cursor + 1) % m;
    scc_unstable_[i] = 0;
    unstable_[scc.blocks[i]] = 0;
    --remaining;
    evaluate_block_compiled(scc.blocks[i], stats, &ctx);
    if (++spent > limit) {
      fail_convergence(stats, limit);
    }
  }
}

StepStats SequentialSimulator::step_two_phase() {
  // Ablation schedule: two full passes. Correct only for designs whose
  // outputs depend on registered state alone (true for the case-study
  // router); pass 1 publishes all outputs, pass 2 recomputes every next
  // state with final link values.
  StepStats stats;
  links_.reset_all_hbr();
  begin_eval_accounting();
  for (int pass = 0; pass < 2; ++pass) {
    for (BlockId b = 0; b < model_.num_blocks(); ++b) {
      evaluate_block(b, stats);
    }
  }
  stats.re_evaluations = stats.delta_cycles - first_evals_;
  return stats;
}

void SequentialSimulator::evaluate_block(BlockId b, StepStats& stats) {
  const BlockInstance& blk = model_.block(b);
  const SimBlock& logic = *blk.logic;
  const std::size_t n_in = logic.num_inputs();
  const std::size_t n_out = logic.num_outputs();

  if (scheduler_ == SchedulerKind::kWorklist) {
    // This evaluation consumes the freshest input values; any later
    // change re-queues the block (and re-flags it) via destabilize.
    pending_input_[b] = 0;
  }

  if (in_scratch_.size() < n_in) {
    in_scratch_.resize(n_in, BitVector(0));
  }
  if (out_scratch_.size() < n_out) {
    out_scratch_.resize(n_out, BitVector(0));
  }

  // Latch the input link values this evaluation consumes, then set their
  // HBR bits: a later changed write to any of them must destabilize us.
  for (std::size_t p = 0; p < n_in; ++p) {
    const LinkId l = blk.input_links[p];
    in_scratch_[p] = links_.read(l);
    if (model_.link(l).kind == LinkKind::kCombinational) {
      links_.mark_read(l);
    }
  }

  for (std::size_t p = 0; p < n_out; ++p) {
    if (out_scratch_[p].width() != logic.output_width(p)) {
      out_scratch_[p] = BitVector(logic.output_width(p));
    }
  }

  logic.evaluate_state(state_.read_old(b),
                       std::span<const BitVector>(in_scratch_.data(), n_in),
                       state_.new_slot(b),
                       std::span<BitVector>(out_scratch_.data(), n_out));

  if (scheduler_ == SchedulerKind::kWorklist) {
    // Fixed-point witness for the quiescence fast path. The last
    // evaluation of the cycle is the committed one, so the flag's final
    // value describes exactly the state the bank swap publishes.
    state_fixed_[b] = state_.new_equals_old(b) ? 1 : 0;
  }

  for (std::size_t p = 0; p < n_out; ++p) {
    const LinkId l = blk.output_links[p];
    const bool changed = links_.write(l, out_scratch_[p]);
    if (changed) {
      // "if the router writes a value to a link, which is not equal to the
      //  current value in the memory, it will reset this link's status bit
      //  to zero" — destabilizing the reader.
      ++stats.link_changes;
      recent_changed_links_[recent_changed_count_++ % kChangedLinkHistory] = l;
      links_.clear_hbr(l);
      for (const Endpoint& reader : model_.link(l).readers) {
        destabilize(reader.block);
      }
    }
  }

  note_first_eval(b);
  ++stats.delta_cycles;
  ++total_delta_cycles_;
  if (trace_) {
    trace_(cycle_, stats.delta_cycles - 1, b);
  }
}

void SequentialSimulator::evaluate_block_compiled(BlockId b, StepStats& stats,
                                                  const SettleCtx* ctx) {
  // Lean twin of evaluate_block: no HBR marks, no destabilization, no
  // worklist — the compiled op order already guarantees every input a
  // committing evaluation consumes is final. Change detection on link
  // writes stays (it feeds link_changes and, during a settle, the SCC's
  // scoped destabilization).
  const BlockInstance& blk = model_.block(b);
  const SimBlock& logic = *blk.logic;
  const std::size_t n_in = logic.num_inputs();
  const std::size_t n_out = logic.num_outputs();

  if (in_scratch_.size() < n_in) {
    in_scratch_.resize(n_in, BitVector(0));
  }
  if (out_scratch_.size() < n_out) {
    out_scratch_.resize(n_out, BitVector(0));
  }
  for (std::size_t p = 0; p < n_in; ++p) {
    in_scratch_[p] = links_.read(blk.input_links[p]);
  }
  for (std::size_t p = 0; p < n_out; ++p) {
    if (out_scratch_[p].width() != logic.output_width(p)) {
      out_scratch_[p] = BitVector(logic.output_width(p));
    }
  }

  // A drive's state write is harmlessly overwritten by the later
  // committing evaluation; the last write wins in the new bank.
  logic.evaluate_state(state_.read_old(b),
                       std::span<const BitVector>(in_scratch_.data(), n_in),
                       state_.new_slot(b),
                       std::span<BitVector>(out_scratch_.data(), n_out));

  for (std::size_t p = 0; p < n_out; ++p) {
    const LinkId l = blk.output_links[p];
    if (!links_.write(l, out_scratch_[p])) {
      continue;
    }
    ++stats.link_changes;
    recent_changed_links_[recent_changed_count_++ % kChangedLinkHistory] = l;
    if (ctx != nullptr && compiled_->scc_of_link[l] == ctx->scc_id) {
      // Scoped worklist: a changed SCC-internal link re-flags exactly
      // its (single) reader, which is itself an SCC member.
      const BlockId r = model_.link(l).readers.front().block;
      const auto it = std::lower_bound(ctx->scc->blocks.begin(),
                                       ctx->scc->blocks.end(), r);
      const std::size_t idx =
          static_cast<std::size_t>(it - ctx->scc->blocks.begin());
      if (!(*ctx->unstable)[idx]) {
        (*ctx->unstable)[idx] = 1;
        ++*ctx->remaining;
        unstable_[r] = 1;
      }
    }
  }

  note_first_eval(b);
  ++stats.delta_cycles;
  ++total_delta_cycles_;
  if (trace_) {
    trace_(cycle_, stats.delta_cycles - 1, b);
  }
}

ConvergenceReport SequentialSimulator::make_convergence_report(
    const StepStats& stats, DeltaCycle limit) const {
  ConvergenceReport r;
  r.cycle = cycle_;
  r.delta_cycles = stats.delta_cycles;
  r.limit = limit;
  r.num_blocks = model_.num_blocks();
  r.link_changes = stats.link_changes;
  for (BlockId b = 0; b < model_.num_blocks(); ++b) {
    if (unstable_[b]) {
      r.oscillating_blocks.push_back(b);
    }
  }
  // Newest first; the ring may not be full yet.
  const std::size_t have =
      std::min(recent_changed_count_, kChangedLinkHistory);
  for (std::size_t i = 0; i < have; ++i) {
    r.last_changed_links.push_back(
        recent_changed_links_[(recent_changed_count_ - 1 - i) %
                              kChangedLinkHistory]);
  }
  return r;
}

void SequentialSimulator::destabilize(BlockId b) {
  if (unstable_[b] == 0) {
    unstable_[b] = 1;
    ++unstable_count_;
    if (scheduler_ == SchedulerKind::kWorklist &&
        policy_ == SchedulePolicy::kDynamic) {
      // Dedup'd FIFO push: the flag guards against double-queueing, so
      // each pending event costs exactly one future evaluation. The
      // static/two-phase schedules never consume the FIFO, hence the
      // policy gate.
      worklist_.push_back(b);
      const std::uint64_t depth =
          static_cast<std::uint64_t>(worklist_.size() - wl_head_);
      wl_high_water_ = std::max(wl_high_water_, depth);
    }
  }
}

bool SequentialSimulator::inputs_all_read(BlockId b) const {
  const BlockInstance& blk = model_.block(b);
  for (const LinkId l : blk.input_links) {
    if (model_.link(l).kind == LinkKind::kCombinational &&
        !links_.has_been_read(l)) {
      return false;
    }
  }
  return true;
}

void SequentialSimulator::end_of_cycle() {
  state_.swap_banks();
  links_.swap_registered_banks();
  ++cycle_;
}

}  // namespace tmsim::core
