#include "core/engine.h"

#include <algorithm>

#include "common/rng.h"

namespace tmsim::core {

Engine::~Engine() = default;

SimObserver::~SimObserver() = default;

const char* scheduler_kind_name(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kRoundRobin:
      return "round_robin";
    case SchedulerKind::kWorklist:
      return "worklist";
    case SchedulerKind::kCompiled:
      return "compiled";
  }
  return "unknown";
}

std::string ConvergenceReport::summary() const {
  std::string s = "system cycle " + std::to_string(cycle) +
                  " did not settle after " + std::to_string(delta_cycles) +
                  " delta cycles (limit " + std::to_string(limit) + "); " +
                  std::to_string(oscillating_blocks.size()) + "/" +
                  std::to_string(num_blocks) + " blocks unstable";
  if (!oscillating_blocks.empty()) {
    s += " {";
    const std::size_t shown = std::min<std::size_t>(8, oscillating_blocks.size());
    for (std::size_t i = 0; i < shown; ++i) {
      if (i) s += ',';
      s += std::to_string(oscillating_blocks[i]);
    }
    if (shown < oscillating_blocks.size()) s += ",...";
    s += '}';
  }
  if (!last_changed_links.empty()) {
    s += "; last changed links {";
    for (std::size_t i = 0; i < last_changed_links.size(); ++i) {
      if (i) s += ',';
      s += std::to_string(last_changed_links[i]);
    }
    s += '}';
  }
  return s;
}

namespace {

ContextualError::Context convergence_context(const ConvergenceReport& r) {
  ContextualError::Context ctx;
  ctx.emplace_back("cycle", std::to_string(r.cycle));
  ctx.emplace_back("delta_cycles", std::to_string(r.delta_cycles));
  ctx.emplace_back("limit", std::to_string(r.limit));
  ctx.emplace_back("unstable_blocks",
                   std::to_string(r.oscillating_blocks.size()));
  ctx.emplace_back("link_changes", std::to_string(r.link_changes));
  return ctx;
}

}  // namespace

ConvergenceError::ConvergenceError(ConvergenceReport report)
    : ContextualError(
          "combinational dependencies do not settle (oscillating loop?): " +
              report.summary(),
          convergence_context(report)),
      report_(std::move(report)) {}

std::vector<const SimBlock*> block_logic(const SystemModel& model) {
  std::vector<const SimBlock*> logic;
  logic.reserve(model.num_blocks());
  for (BlockId b = 0; b < model.num_blocks(); ++b) {
    logic.push_back(model.block(b).logic.get());
  }
  return logic;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

std::uint64_t states_digest(const std::vector<BitVector>& states) {
  std::uint64_t h = kFnvOffset;
  for (const BitVector& s : states) {
    fnv_mix(h, s.width());
    for (std::uint64_t w : s.words()) {
      fnv_mix(h, w);
    }
  }
  return h;
}

/// Registered *internal* links hold committed values the block-state
/// snapshot cannot see; combinational links (and external links, driven
/// or observed by the testbench each cycle) carry none across cycles.
void check_checkpointable(const SystemModel& model) {
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const LinkInfo& info = model.link(l);
    const bool internal =
        info.writer.has_value() && !info.readers.empty();
    if (internal && info.kind == LinkKind::kRegistered) {
      throw ContextualError(
          "model has an internal registered link; its committed value is "
          "not part of the block-state checkpoint, so checkpoint/resume "
          "is unsupported for this model",
          {{"link", std::to_string(l)}, {"name", info.name}});
    }
  }
}

}  // namespace

std::uint64_t engine_state_digest(const Engine& eng) {
  std::uint64_t h = kFnvOffset;
  const SystemModel& model = eng.model();
  for (BlockId b = 0; b < model.num_blocks(); ++b) {
    const BitVector& s = eng.block_state(b);
    fnv_mix(h, s.width());
    for (std::uint64_t w : s.words()) {
      fnv_mix(h, w);
    }
  }
  return h;
}

EngineCheckpoint save_checkpoint(const Engine& eng) {
  const SystemModel& model = eng.model();
  check_checkpointable(model);
  EngineCheckpoint ck;
  ck.cycle = eng.cycle();
  ck.total_delta_cycles = eng.total_delta_cycles();
  ck.block_states.reserve(model.num_blocks());
  for (BlockId b = 0; b < model.num_blocks(); ++b) {
    ck.block_states.push_back(eng.block_state(b));
  }
  ck.digest = states_digest(ck.block_states);
  ck.sched = eng.scheduler_checkpoint();
  // Block-driven combinational link values ride along (ascending link
  // id) so the scheduler's activity flags stay sound after the restore —
  // a block the fast path skips never rewrites its outputs, including
  // the ones only the testbench reads.
  for (LinkId l = 0; l < model.num_links(); ++l) {
    const LinkInfo& info = model.link(l);
    if (info.kind == LinkKind::kCombinational && info.writer.has_value()) {
      ck.link_ids.push_back(l);
      ck.link_values.push_back(eng.link_value(l));
    }
  }
  ck.link_digest = states_digest(ck.link_values);
  return ck;
}

void restore_checkpoint(Engine& eng, const EngineCheckpoint& ck) {
  const SystemModel& model = eng.model();
  check_checkpointable(model);
  if (ck.block_states.size() != model.num_blocks()) {
    throw ContextualError(
        "checkpoint shape does not match the engine's model",
        {{"checkpoint_blocks", std::to_string(ck.block_states.size())},
         {"model_blocks", std::to_string(model.num_blocks())}});
  }
  if (states_digest(ck.block_states) != ck.digest) {
    throw ContextualError(
        "checkpoint digest mismatch: snapshot corrupted in flight",
        {{"cycle", std::to_string(ck.cycle)}});
  }
  // A hand-built checkpoint may omit the link snapshot entirely (both
  // fields defaulted); anything else must verify.
  const bool has_link_snapshot =
      !ck.link_ids.empty() || ck.link_digest != 0;
  if (has_link_snapshot &&
      (ck.link_ids.size() != ck.link_values.size() ||
       states_digest(ck.link_values) != ck.link_digest)) {
    throw ContextualError(
        "checkpoint link-value digest mismatch: snapshot corrupted in flight",
        {{"cycle", std::to_string(ck.cycle)}});
  }
  for (BlockId b = 0; b < model.num_blocks(); ++b) {
    eng.load_block_state(b, ck.block_states[b]);
  }
  for (std::size_t i = 0; i < ck.link_ids.size(); ++i) {
    if (ck.link_ids[i] < model.num_links()) {
      eng.load_link_value(ck.link_ids[i], ck.link_values[i]);
    }
  }
  // Verify the loads landed bit-for-bit — the same mirror-vs-hardware
  // cross-check the hardened host applies to its commit counters.
  if (engine_state_digest(eng) != ck.digest) {
    throw ContextualError(
        "restored engine state does not match the checkpoint digest",
        {{"cycle", std::to_string(ck.cycle)}});
  }
  // Scheduler bookkeeping rides along so the resumed engine replays the
  // same StepStats stream; a mismatched/empty snapshot canonicalizes.
  eng.restore_scheduler_state(ck.sched);
  eng.rebase(ck.cycle, ck.total_delta_cycles);
}

std::size_t schedule_rr_offset(std::uint64_t schedule_seed,
                               std::size_t num_blocks) {
  if (schedule_seed == 1 || num_blocks == 0) {
    return 0;
  }
  SplitMix64 rng(schedule_seed);
  return static_cast<std::size_t>(rng.next_below(num_blocks));
}

void reset_engine(Engine& eng) {
  const SystemModel& model = eng.model();
  for (BlockId b = 0; b < model.num_blocks(); ++b) {
    eng.load_block_state(b, model.block(b).logic->reset_state());
  }
  // Power-on scheduling state too: cursors back to their seeded offsets,
  // activity flags cleared — a reused farm engine must not leak the
  // previous tenant's scheduling stats into the next job's stream.
  eng.restore_scheduler_state({});
  eng.rebase(0, 0);
}

void check_external_input(const SystemModel& model, LinkId link) {
  TMSIM_CHECK_MSG(link < model.num_links(), "link index out of range");
  const LinkInfo& info = model.link(link);
  if (!model.is_external_input(link)) {
    throw ContextualError(
        "link '" + info.name + "' is driven by a block, not the testbench",
        {{"link", std::to_string(link)}, {"name", info.name}});
  }
  if (info.readers.empty()) {
    throw ContextualError(
        "link '" + info.name +
            "' has no readers: driving it is a silently dropped stimulus",
        {{"link", std::to_string(link)}, {"name", info.name}});
  }
}

}  // namespace tmsim::core
