// The three engine workloads: a TrafficHarness driving a core engine
// through the NocSimulation facade, timed per system cycle, and checked
// bit for bit against noc::DirectNocSimulation driven by the same seeded
// harness.
//
// Untraced run: set-up (repeated, median) → untimed warm-up → a timed
// window of `--seconds` → peak RSS → reference check.
// Traced run: the untraced procedure over half the window, then the same
// cycle count again on a fresh instance with TimedNoc and EngineCounters
// attached (its final state must equal the untraced one), then the noc
// replay and the set-up layer timings.
#include <cmath>
#include <memory>
#include <string>

#include "analysis/static_schedule.h"
#include "calibrate.h"
#include "common.h"
#include "core/noc_block.h"
#include "noc/network.h"
#include "trace.h"
#include "traffic/harness.h"

namespace perfbench {
namespace {

using tmsim::BitVector;
using tmsim::SystemCycle;
using tmsim::core::EngineOptions;
using tmsim::core::SchedulerKind;
using tmsim::core::SeqNocSimulation;
using tmsim::traffic::TrafficHarness;

struct EngineWorkload {
  const char* name;
  std::size_t side;  ///< mesh width == height
  EngineOptions engine;
  double be_load;
  SystemCycle warmup_cycles;  ///< untimed, fills the network
  SystemCycle chunk_cycles;   ///< cycles per sim_cps sample
};

EngineOptions engine_options(SchedulerKind sched, std::size_t shards) {
  EngineOptions o;
  o.scheduler = sched;
  o.num_shards = shards;
  return o;
}

const EngineWorkload kWorkloads[] = {
    {"paper-6x6", 6, engine_options(SchedulerKind::kRoundRobin, 1), 0.10,
     1000, 128},
    {"sparse-12x12", 12, engine_options(SchedulerKind::kWorklist, 1), 0.02,
     1000, 128},
    {"busy-12x12-sharded", 12, engine_options(SchedulerKind::kCompiled, 2),
     0.15, 300, 32},
};

constexpr std::size_t kSetupReps = 21;
constexpr std::size_t kReplaySamples = 12;
constexpr std::size_t kReplayReps = 5;

const EngineWorkload* find_workload(const std::string& name) {
  for (const EngineWorkload& wl : kWorkloads) {
    if (name == wl.name) {
      return &wl;
    }
  }
  return nullptr;
}

tmsim::noc::NetworkConfig network_of(const EngineWorkload& wl) {
  tmsim::noc::NetworkConfig net;
  net.width = wl.side;
  net.height = wl.side;
  net.topology = tmsim::noc::Topology::kMesh;
  net.router.queue_depth = 4;
  return net;
}

/// CPU placement of a timed multi-shard engine: the harness thread (which
/// also runs shard 0) on one CPU, the shard workers on the next ones, so
/// that barrier_slice_ns can calibrate exactly the CPUs whose speed and
/// wake-up latency set the engine's pace. Empty (nothing pinned, plain
/// slices) for one shard, or when the process may not use more CPUs than
/// the engine has threads.
struct Placement {
  std::vector<int> main;
  std::vector<int> workers;

  explicit Placement(std::size_t shards) {
    const std::vector<int> cpus = shards > 1 ? first_cpus(shards)
                                             : std::vector<int>{};
    if (!cpus.empty()) {
      main.assign(cpus.begin(), cpus.begin() + 1);
      workers.assign(cpus.begin() + 1, cpus.end());
    }
  }
};

/// Builds the engine; its shard workers inherit `place.workers`.
std::unique_ptr<SeqNocSimulation> make_sim(const tmsim::noc::NetworkConfig& net,
                                           const EngineWorkload& wl,
                                           const Placement& place) {
  const ScopedAffinity pin(place.workers);
  return std::make_unique<SeqNocSimulation>(net, wl.engine);
}

std::unique_ptr<TrafficHarness> make_harness(tmsim::noc::NocSimulation& sim,
                                             const EngineWorkload& wl,
                                             std::uint64_t seed) {
  TrafficHarness::Options opt;
  opt.seed = seed;
  auto h = std::make_unique<TrafficHarness>(sim, opt);
  h->set_be_load(wl.be_load);
  return h;
}

/// What the bit-identity gate compares at the end of a run.
struct FinalState {
  std::vector<BitVector> router_states;
  std::size_t injected = 0;
  std::size_t delivered = 0;
};

FinalState final_state(const tmsim::noc::NocSimulation& sim,
                       const TrafficHarness& h) {
  FinalState s;
  for (std::size_t r = 0; r < sim.config().num_routers(); ++r) {
    s.router_states.push_back(sim.router_state_word(r));
  }
  s.injected = h.flits_injected();
  s.delivered = h.flits_delivered();
  return s;
}

/// Empty when equal, else the first difference.
std::string compare(const FinalState& got, const FinalState& want) {
  if (got.injected != want.injected) {
    return "flits injected " + std::to_string(got.injected) + " != " +
           std::to_string(want.injected);
  }
  if (got.delivered != want.delivered) {
    return "flits delivered " + std::to_string(got.delivered) + " != " +
           std::to_string(want.delivered);
  }
  if (got.router_states.size() != want.router_states.size()) {
    return "router count differs";
  }
  for (std::size_t r = 0; r < got.router_states.size(); ++r) {
    if (got.router_states[r] != want.router_states[r]) {
      return "router " + std::to_string(r) + " state word differs";
    }
  }
  return {};
}

FinalState reference_run(const EngineWorkload& wl, std::uint64_t seed,
                         SystemCycle cycles, bool corrupt) {
  tmsim::noc::DirectNocSimulation ref(network_of(wl));
  auto h = make_harness(ref, wl, seed);
  h->run(cycles);
  FinalState s = final_state(ref, *h);
  if (corrupt) {
    BitVector& w = s.router_states.front();
    w.set_bit(0, !w.get_bit(0));
  }
  return s;
}

/// Timed window: one harness cycle at a time, so every cycle is a latency
/// sample, in chunks of `chunk` cycles (one sim_cps sample each). About
/// every kCalibrationPeriodS a calibration slice runs, and the chunks since
/// the previous slice are rescaled to reference time with the mean speed
/// factor of the two slices around them (see calibrate.h). The first
/// kSettleCycles cycles after a slice re-warm the caches the slice
/// evicted, so they count toward throughput but are not latency samples.
/// Stops after `seconds` of wall time (checked at chunk boundaries) or,
/// when `fixed_cycles` is non-zero, after exactly that many cycles.
constexpr double kCalibrationPeriodS = 0.2;
constexpr std::size_t kSettleCycles = 2;

struct Window {
  SystemCycle cycles = 0;
  double wall_s = 0.0;               ///< calibration slices included
  std::vector<double> chunk_cps;     ///< full chunks, reference time
  std::vector<double> raw_cps;       ///< full chunks, wall time
  std::vector<double> factors;       ///< host-speed factor per slice pair
  std::vector<double> cycle_ms;      ///< latency samples, reference time
  // Reference ns: all cycles, and (traced runs) TimedNoc's shares.
  double cycles_ns = 0.0;
  double step_ns = 0.0;
  double port_ns = 0.0;
  double self_ns = 0.0;
};

Window run_window(TrafficHarness& h, TimedNoc* timed, SystemCycle chunk,
                  double seconds, SystemCycle fixed_cycles,
                  const Placement& place) {
  auto slice = [&] {
    return place.workers.empty() ? calibration_slice_ns()
                                 : barrier_slice_ns(place.workers);
  };
  Window w;
  // Wall-clock measurements since the last calibration slice.
  struct Pending {
    std::vector<std::pair<SystemCycle, double>> chunks;  // cycles, seconds
    std::vector<std::uint64_t> cycle_ns;
    std::uint64_t all_ns = 0;
    std::uint64_t step0 = 0, port0 = 0, self0 = 0;
  } pend;
  auto mark = [&] {
    pend.chunks.clear();
    pend.cycle_ns.clear();
    pend.all_ns = 0;
    if (timed != nullptr) {
      pend.step0 = timed->step_ns();
      pend.port0 = timed->port_ns();
      pend.self0 = timed->self_ns();
    }
  };
  std::uint64_t slice_before = slice();
  auto flush = [&] {
    const std::uint64_t slice_after = slice();
    const double f = speed_factor((slice_before + slice_after) / 2);
    slice_before = slice_after;
    w.factors.push_back(f);
    for (const auto& [n, secs] : pend.chunks) {
      if (n == chunk) {
        w.chunk_cps.push_back(static_cast<double>(n) / (secs * f));
        w.raw_cps.push_back(static_cast<double>(n) / secs);
      }
    }
    for (std::size_t i = kSettleCycles; i < pend.cycle_ns.size(); ++i) {
      w.cycle_ms.push_back(static_cast<double>(pend.cycle_ns[i]) * 1e-6 * f);
    }
    w.cycles_ns += static_cast<double>(pend.all_ns) * f;
    if (timed != nullptr) {
      w.step_ns += static_cast<double>(timed->step_ns() - pend.step0) * f;
      w.port_ns += static_cast<double>(timed->port_ns() - pend.port0) * f;
      w.self_ns += static_cast<double>(timed->self_ns() - pend.self0) * f;
    }
  };

  const std::uint64_t start = now_ns();
  std::uint64_t last_slice = start;
  mark();
  for (;;) {
    if (fixed_cycles != 0 ? w.cycles >= fixed_cycles
                          : ns_to_s(now_ns() - start) >= seconds) {
      break;
    }
    SystemCycle n = chunk;
    if (fixed_cycles != 0) {
      n = std::min(n, fixed_cycles - w.cycles);
    }
    const std::uint64_t c0 = now_ns();
    for (SystemCycle i = 0; i < n; ++i) {
      const std::uint64_t t0 = now_ns();
      if (timed != nullptr) {
        timed->begin();
        h.run(1);
        timed->end();
      } else {
        h.run(1);
      }
      const std::uint64_t ns = now_ns() - t0;
      pend.cycle_ns.push_back(ns);
      pend.all_ns += ns;
    }
    const std::uint64_t c1 = now_ns();
    pend.chunks.emplace_back(n, ns_to_s(c1 - c0));
    w.cycles += n;
    if (ns_to_s(c1 - last_slice) >= kCalibrationPeriodS) {
      flush();
      last_slice = now_ns();
      mark();
    }
  }
  if (!pend.chunks.empty()) {
    flush();
  }
  w.wall_s = ns_to_s(now_ns() - start);
  return w;
}

/// Median reference time of `f` over `reps` calls.
template <typename F>
double median_reference_seconds(std::size_t reps, F&& f) {
  std::vector<double> s;
  for (std::size_t i = 0; i < reps; ++i) {
    s.push_back(reference_seconds(f));
  }
  return median(s);
}

/// One untraced pass: set-up ×kSetupReps, warm-up, timed window,
/// reference check. Fills the end-to-end metrics into `out`.
struct UntracedPass {
  SystemCycle total_cycles = 0;
  FinalState final;
  double sim_cps = 0.0;
};

UntracedPass untraced_pass(const EngineWorkload& wl, const RunConfig& cfg,
                           std::uint64_t seed, double seconds,
                           RunResult& out) {
  const tmsim::noc::NetworkConfig net = network_of(wl);
  std::vector<double> setup_s;
  std::unique_ptr<SeqNocSimulation> sim;
  std::unique_ptr<TrafficHarness> h;
  // Set-up is timed as a user builds the engine, with the OS placing
  // its threads; the timed instance is then rebuilt with a fixed
  // placement (a no-op for one shard).
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    h.reset();
    sim.reset();
    setup_s.push_back(reference_seconds([&] {
      sim = std::make_unique<SeqNocSimulation>(net, wl.engine);
      h = make_harness(*sim, wl, seed);
    }));
  }
  const Placement place(wl.engine.num_shards);
  const ScopedAffinity pin(place.main);
  if (!place.workers.empty()) {
    h.reset();
    sim = make_sim(net, wl, place);
    h = make_harness(*sim, wl, seed);
  }

  h->run(wl.warmup_cycles);
  // Sampled before the timed window: the harness keeps every packet
  // record, so memory grows with the cycles simulated, and a faster
  // engine simulating more cycles in the window must not read as a
  // memory regression.
  const double rss = peak_rss_mb();
  const Window w =
      run_window(*h, nullptr, wl.chunk_cycles, seconds, 0, place);

  UntracedPass pass;
  pass.total_cycles = wl.warmup_cycles + w.cycles;
  pass.final = final_state(*sim, *h);
  pass.sim_cps = median(w.chunk_cps);
  if (h->overloaded()) {
    out.fail("harness reported overload (unbounded source backlog)");
  }
  out.detail("cycles_timed", static_cast<double>(w.cycles));
  out.detail("cycles_total", static_cast<double>(pass.total_cycles));
  out.detail("window_s", w.wall_s);
  out.detail("latency_samples", static_cast<double>(w.cycle_ms.size()));
  out.detail("sim_cps_samples", static_cast<double>(w.chunk_cps.size()));
  out.detail("source_backlog_flits", static_cast<double>(h->source_backlog()));
  out.detail("flits_delivered", static_cast<double>(pass.final.delivered));
  out.detail("sim_cps_wall", median(w.raw_cps));
  out.detail("host_speed_factor", median(w.factors));

  const FinalState ref =
      reference_run(wl, seed, pass.total_cycles, cfg.corrupt_reference);
  out.attempted += 1;
  if (const std::string diff = compare(pass.final, ref); !diff.empty()) {
    out.failed += 1;
    out.fail("bit-identity vs DirectNocSimulation: " + diff);
  }

  if (!cfg.trace) {
    out.add("sim_cps", pass.sim_cps, "cycles/s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", rss, "MB");
    out.add("latency_p50_ms", quantile(w.cycle_ms, 0.50), "ms");
    out.add("latency_p90_ms", quantile(w.cycle_ms, 0.90), "ms");
  }
  return pass;
}

void traced_pass(const EngineWorkload& wl, std::uint64_t seed,
                 const UntracedPass& base, RunResult& out) {
  const tmsim::noc::NetworkConfig net = network_of(wl);
  const Placement place(wl.engine.num_shards);
  const ScopedAffinity pin(place.main);
  const std::unique_ptr<SeqNocSimulation> owned = make_sim(net, wl, place);
  SeqNocSimulation& sim = *owned;
  TimedNoc timed(sim);
  auto h = make_harness(timed, wl, seed);
  h->run(wl.warmup_cycles);

  const SystemCycle timed_cycles = base.total_cycles - wl.warmup_cycles;
  EngineCounters counters(sample_cycles(mix_seed(seed, 3), wl.warmup_cycles + 1,
                                        base.total_cycles, kReplaySamples));
  const std::size_t inj0 = h->flits_injected();
  const std::size_t del0 = h->flits_delivered();
  sim.set_observer(&counters);
  const Window w =
      run_window(*h, &timed, wl.chunk_cycles, 0.0, timed_cycles, place);
  sim.set_observer(nullptr);

  // Observation must be invisible: the traced run ends in the state the
  // untraced run (already checked against the reference) ended in.
  out.attempted += 1;
  if (const std::string diff = compare(final_state(sim, *h), base.final);
      !diff.empty()) {
    out.failed += 1;
    out.fail("traced run diverged from untraced run: " + diff);
  }

  const double cycles = static_cast<double>(w.cycles);
  const double step_us = w.step_ns * 1e-3 / cycles;
  const double port_us = w.port_ns * 1e-3 / cycles;
  const double self_us = w.self_ns * 1e-3 / cycles;
  const double wall_us = w.cycles_ns * 1e-3 / cycles;

  const ReplayEstimate replay = replay_router_eval(
      sim.engine().model(), net, counters.captured(), kReplayReps);
  if (!replay.reproduced) {
    out.fail("noc replay did not reproduce the committed router state");
  }
  const double shards = static_cast<double>(wl.engine.num_shards);
  const double evals_per_cycle = static_cast<double>(counters.delta_cycles) / cycles;
  // Evaluations of a sharded cycle run on `shards` threads at once, so
  // their wall-time share is the serial estimate divided by the shards.
  const double eval_us = replay.eval_ns * evals_per_cycle * 1e-3 / shards;

  double settle_sum = 0.0, barrier_sum = 0.0, settle_max = 0.0;
  for (std::size_t s = 0; s < wl.engine.num_shards; ++s) {
    const double settle = static_cast<double>(counters.settle_ns[s].load());
    settle_sum += settle;
    barrier_sum += static_cast<double>(counters.barrier_ns[s].load());
    settle_max = std::max(settle_max, settle);
  }
  const bool sharded = wl.engine.num_shards > 1;

  // Set-up layers, timed by calling their public entry points directly.
  const double model_build_s = median_reference_seconds(kSetupReps, [&] {
    const tmsim::core::NocModel m = tmsim::core::build_noc_model(net);
    (void)m;
  });
  double schedule_build_s = 0.0;
  if (wl.engine.scheduler == SchedulerKind::kCompiled) {
    const tmsim::core::NocModel m = tmsim::core::build_noc_model(net);
    schedule_build_s = median_reference_seconds(kSetupReps, [&] {
      const auto sched = tmsim::analysis::build_compiled_schedule(m.model);
      (void)sched;
    });
  }

  const double traced_cps = median(w.chunk_cps);
  out.add("noc.eval_ns", replay.eval_ns, "ns");
  out.add("noc.codec_ns", replay.codec_ns, "ns");
  out.add("noc.eval_us_per_cycle", eval_us, "us/cycle");
  out.add("core.delta_evals_per_cycle", evals_per_cycle, "evals/cycle");
  out.add("core.first_eval_ratio",
          counters.delta_cycles == 0
              ? 0.0
              : 1.0 - static_cast<double>(counters.re_evaluations) /
                          static_cast<double>(counters.delta_cycles),
          "ratio");
  out.add("core.skipped_blocks_per_cycle",
          static_cast<double>(counters.skipped_blocks) / cycles, "blocks/cycle");
  out.add("core.link_changes_per_cycle",
          static_cast<double>(counters.link_changes) / cycles, "links/cycle");
  out.add("core.step_us_per_cycle", step_us, "us/cycle");
  out.add("core.port_us_per_cycle", port_us, "us/cycle");
  out.add("core.unattributed_us_per_cycle", step_us - eval_us, "us/cycle");
  out.add("traffic.self_us_per_cycle", self_us, "us/cycle");
  out.add("traffic.flits_per_cycle",
          static_cast<double>((h->flits_injected() - inj0) +
                              (h->flits_delivered() - del0)) /
              cycles,
          "flits/cycle");
  out.add("core.shard.settle_us_per_cycle",
          sharded ? settle_sum / shards * 1e-3 / cycles : 0.0, "us/cycle");
  out.add("core.shard.barrier_us_per_cycle",
          sharded ? barrier_sum / shards * 1e-3 / cycles : 0.0, "us/cycle");
  out.add("core.shard.imbalance",
          sharded && settle_sum > 0.0 ? settle_max / (settle_sum / shards) : 0.0,
          "ratio");
  out.add("core.supersteps_per_cycle",
          sharded ? static_cast<double>(counters.settle_rounds) / cycles : 0.0,
          "steps/cycle");
  out.add("core.cut_publishes_per_cycle",
          static_cast<double>(counters.cut_publishes) / cycles, "links/cycle");
  out.add("core.model_build_s", model_build_s, "s");
  out.add("analysis.schedule_build_s", schedule_build_s, "s");
  out.add("trace_overhead_pct", (base.sim_cps / traced_cps - 1.0) * 100.0, "%");

  // Accounting: the three attributed shares must cover the measured
  // per-cycle wall time; noc + unattributed == step by construction.
  const double attributed = self_us + step_us + port_us;
  const double gap_pct = std::fabs(attributed - wall_us) / wall_us * 100.0;
  out.detail("trace.wall_us_per_cycle", wall_us);
  out.detail("trace.self_plus_step_plus_port_us_per_cycle", attributed);
  out.detail("trace.accounting_gap_pct", gap_pct);
  out.detail("trace.noc_plus_unattributed_us_per_cycle",
             eval_us + (step_us - eval_us));
  out.detail("trace.replayed_evals", static_cast<double>(replay.evals));
  out.detail("trace.sim_cps_untraced", base.sim_cps);
  out.detail("trace.sim_cps_traced", traced_cps);
  if (gap_pct > 2.0) {
    out.fail("trace accounting does not close: traffic.self + core.step + "
             "core.port differs from the measured wall time by " +
             std::to_string(gap_pct) + "%");
  }
}

}  // namespace

bool is_engine_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

RunResult run_engine_workload(const RunConfig& cfg) {
  const EngineWorkload& wl = *find_workload(cfg.workload);
  const std::uint64_t seed = mix_seed(cfg.seed, 1);
  RunResult out;
  try {
    const double seconds = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
    const UntracedPass base = untraced_pass(wl, cfg, seed, seconds, out);
    if (cfg.trace) {
      traced_pass(wl, seed, base, out);
    }
  } catch (const std::exception& e) {
    out.attempted = std::max<std::uint64_t>(out.attempted, 1);
    out.failed = out.attempted;
    out.fail(std::string("exception: ") + e.what());
  }
  if (!cfg.trace) {
    out.add("ok_frac",
            1.0 - static_cast<double>(out.failed) /
                      static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
            "ratio");
  }
  return out;
}

}  // namespace perfbench
