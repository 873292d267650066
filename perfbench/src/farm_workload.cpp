// farm-sweep: one closed-loop submitter feeds a seeded parameter sweep
// of short jobs into an in-process SimFarm (2 workers, otherwise default
// FarmOptions). It keeps the admission queue full: a kQueueFull
// rejection sleeps for the farm's retry_after_us hint and resubmits. A
// collector thread drains the completion feed and stamps each job's
// publish time, so turnaround is measured from outside the farm:
// accepted submit → result visible to the client.
//
// Untraced run: farm set-up (repeated, median) → sweep for `--seconds`
// and at least kMinJobs jobs → every job must be kDone, and a seeded
// sample must be results_equivalent to run_job_standalone.
// Traced run: the untraced sweep over half the window, then the same job
// list again on a farm with a MetricsRegistry and timed submits; every
// traced result must be equivalent to its untraced twin.
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "calibrate.h"
#include "common.h"
#include "farm/farm.h"
#include "farm/session.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

using tmsim::farm::FarmOptions;
using tmsim::farm::JobKind;
using tmsim::farm::JobResult;
using tmsim::farm::JobSpec;
using tmsim::farm::JobStatus;
using tmsim::farm::RejectReason;
using tmsim::farm::SimFarm;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMinJobs = 1000;
constexpr std::size_t kQuickJobs = 60;
constexpr std::size_t kSetupReps = 41;
constexpr std::size_t kStandaloneSamples = 16;

/// Sweep point `i`: about one job in five is a hosted (ArmHost ↔ bus ↔
/// FpgaDesign) job; the rest are core-traffic jobs spread over the three
/// schedulers. Mesh 4×4 or 6×6, BE load 0.02–0.10, a few hundred cycles.
JobSpec sweep_job(std::uint64_t seed, std::size_t i) {
  const std::uint64_t r = mix_seed(seed, 1000 + i);
  JobSpec s;
  s.name = "sweep-" + std::to_string(i);
  s.kind = r % 5 == 0 ? JobKind::kHostedFpga : JobKind::kCoreTraffic;
  const std::size_t side = (r >> 8) % 2 == 0 ? 4 : 6;
  s.net.width = side;
  s.net.height = side;
  s.net.topology = tmsim::noc::Topology::kMesh;
  s.net.router.queue_depth = 4;
  if (s.kind == JobKind::kCoreTraffic) {
    s.engine.scheduler =
        static_cast<tmsim::core::SchedulerKind>((r >> 16) % 3);
  }
  s.workload.be_load = 0.02 + 0.08 * static_cast<double>((r >> 24) % 1001) / 1000.0;
  s.workload.be_vcs = {2, 3};
  s.cycles = 100 + (r >> 40) % 201;
  s.seed = mix_seed(seed, 5'000'000 + i);
  return s;
}

struct Sweep {
  std::vector<JobSpec> specs;        ///< in submission order
  std::vector<std::uint64_t> ids;    ///< farm job ids, parallel to specs
  std::vector<JobResult> results;    ///< parallel to specs
  // Times below are reference time (see calibrate.h).
  std::vector<double> turnaround_ms; ///< accepted submit → seen published
  std::vector<double> submit_us;     ///< every submit call, incl. rejects
  /// Peak RSS when the kMinJobs-th result was seen: later results only
  /// add store entries in proportion to speed.
  double rss_mb = 0.0;
  std::size_t queue_full = 0;
  std::size_t other_rejects = 0;
  double makespan_s = 0.0;
  double makespan_wall_s = 0.0;
  /// Median host-speed factor: rescales the farm's own wall-clock
  /// fields (queue and exec seconds, stage counters) to reference time.
  double speed_factor = 1.0;
};

/// Runs one sweep on `farm`. With `fixed` non-empty the job list is
/// replayed verbatim; otherwise jobs are generated until `seconds` have
/// passed and at least `min_jobs` were accepted.
void run_sweep(SimFarm& farm, std::uint64_t seed, double seconds,
               std::size_t min_jobs, const std::vector<JobSpec>& fixed,
               Sweep& sw) {
  std::mutex mu;
  std::unordered_map<std::uint64_t, std::uint64_t> accepted_ns;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;  // id, ns
  std::atomic<bool> submitting{true};
  std::atomic<std::size_t> accepted_count{0};
  const std::size_t rss_at = std::max<std::size_t>(
      1, fixed.empty() ? min_jobs : fixed.size());

  std::thread collector([&] {
    for (;;) {
      const bool last = !submitting.load();
      const auto ids =
          farm.results().next_batch(0, std::chrono::microseconds(2000));
      const std::uint64_t t = now_ns();
      for (const std::uint64_t id : ids) {
        seen.emplace_back(id, t);
        if (seen.size() == rss_at) {
          sw.rss_mb = peak_rss_mb();
        }
      }
      if (last && seen.size() >= accepted_count.load()) {
        return;
      }
      if (last && ids.empty() && farm.results().size() >= accepted_count.load()) {
        return;  // feed overflowed: the rest is recovered below
      }
    }
  });

  SpeedMonitor speed(first_cpus(kWorkers));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> submit_ns;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0;; ++i) {
    if (fixed.empty() ? (i >= min_jobs && ns_to_s(now_ns() - start) >= seconds)
                      : i >= fixed.size()) {
      break;
    }
    JobSpec spec = fixed.empty() ? sweep_job(seed, i) : fixed[i];
    for (;;) {
      const std::uint64_t t0 = now_ns();
      const tmsim::farm::SubmitOutcome out = farm.submit(spec);
      const std::uint64_t t1 = now_ns();
      submit_ns.emplace_back(t0, t1);
      if (out.accepted) {
        {
          std::lock_guard<std::mutex> lock(mu);
          accepted_ns[out.job_id] = t1;
        }
        sw.ids.push_back(out.job_id);
        sw.specs.push_back(std::move(spec));
        accepted_count.fetch_add(1);
        break;
      }
      if (out.reason != RejectReason::kQueueFull) {
        ++sw.other_rejects;
        break;
      }
      ++sw.queue_full;
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<std::int64_t>(out.retry_after_us)));
    }
  }
  farm.drain();
  submitting.store(false);
  collector.join();

  speed.stop();
  sw.speed_factor = speed.median_factor();

  std::unordered_map<std::uint64_t, std::uint64_t> seen_ns(seen.begin(),
                                                           seen.end());
  std::uint64_t end = start;
  for (const std::uint64_t id : sw.ids) {
    sw.results.push_back(farm.wait(id));
    const auto it = seen_ns.find(id);
    if (it != seen_ns.end()) {
      sw.turnaround_ms.push_back(
          speed.reference_seconds(accepted_ns[id], it->second) * 1e3);
      end = std::max(end, it->second);
    } else {
      sw.turnaround_ms.push_back(sw.results.back().turnaround_seconds * 1e3 *
                                 sw.speed_factor);
    }
  }
  for (const auto& [t0, t1] : submit_ns) {
    sw.submit_us.push_back(speed.reference_seconds(t0, t1) * 1e6);
  }
  sw.makespan_s = speed.reference_seconds(start, end);
  sw.makespan_wall_s = ns_to_s(end - start);
  if (sw.rss_mb == 0.0) {
    sw.rss_mb = peak_rss_mb();
  }
}

/// Builds a farm whose worker and supervisor threads are confined to the
/// CPUs the SpeedMonitor calibrates.
std::unique_ptr<SimFarm> make_farm(const FarmOptions& opt) {
  const ScopedAffinity pin(first_cpus(kWorkers));
  return std::make_unique<SimFarm>(opt);
}

/// Blocks until every worker thread has started and waits for work, as
/// the farm's introspection snapshot reports it.
void wait_until_workers_idle(const SimFarm& farm) {
  const std::string idle = "\"state\": \"idle\"";
  for (;;) {
    const std::string snap = farm.introspect();
    std::size_t n = 0;
    for (std::size_t pos = snap.find(idle); pos != std::string::npos;
         pos = snap.find(idle, pos + 1)) {
      ++n;
    }
    if (n >= kWorkers) {
      return;
    }
    std::this_thread::yield();
  }
}

double sum_counter(const tmsim::obs::MetricsRegistry& reg,
                   const std::string& name) {
  double total = 0.0;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    total += static_cast<double>(
        reg.counter_value(name, "worker=" + std::to_string(w)));
  }
  return total;
}

double simulated_cycles(const Sweep& sw) {
  double c = 0.0;
  for (const JobResult& r : sw.results) {
    c += static_cast<double>(r.cycles_simulated);
  }
  return c;
}

}  // namespace

RunResult run_farm_workload(const RunConfig& cfg) {
  RunResult out;
  const std::uint64_t seed = mix_seed(cfg.seed, 2);
  const double seconds = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  const std::size_t min_jobs = cfg.quick ? kQuickJobs : kMinJobs;
  FarmOptions opt;
  opt.num_workers = kWorkers;
  try {
    // Set-up: farm construction until every worker is ready for work.
    std::vector<double> setup_s;
    std::unique_ptr<SimFarm> farm;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
      farm.reset();
      setup_s.push_back(reference_seconds([&] {
        farm = make_farm(opt);
        wait_until_workers_idle(*farm);
      }));
    }

    Sweep base;
    run_sweep(*farm, seed, seconds, min_jobs, {}, base);
    farm->shutdown();
    farm.reset();

    // Gate: every job kDone; a seeded sample equals a standalone run.
    out.attempted = base.specs.size() + base.other_rejects;
    out.failed = base.other_rejects;
    for (const JobResult& r : base.results) {
      if (r.status != JobStatus::kDone) {
        ++out.failed;
        out.fail("job " + r.name + " ended " +
                 tmsim::farm::job_status_name(r.status) + ": " + r.error);
      }
    }
    const std::size_t n = base.specs.size();
    for (std::size_t k = 0; k < std::min(kStandaloneSamples, n); ++k) {
      const std::size_t i = mix_seed(seed, 77 + k) % n;
      JobResult ref = tmsim::farm::run_job_standalone(base.specs[i]);
      if (cfg.corrupt_reference && k == 0) {
        ref.state_digest ^= 1;
      }
      std::string why;
      if (!tmsim::farm::results_equivalent(base.results[i], ref, &why)) {
        ++out.failed;
        out.fail("job " + base.specs[i].name + " differs from standalone: " + why);
      }
    }

    const double cycles = simulated_cycles(base);
    const double jobs_per_s = static_cast<double>(n) / base.makespan_s;
    out.detail("jobs", static_cast<double>(n));
    out.detail("latency_samples", static_cast<double>(base.turnaround_ms.size()));
    out.detail("makespan_s", base.makespan_s);
    out.detail("jobs_per_s", jobs_per_s);
    out.detail("jobs_per_s_wall", static_cast<double>(n) / base.makespan_wall_s);
    out.detail("host_speed_factor", base.speed_factor);
    out.detail("queue_full_rejects", static_cast<double>(base.queue_full));
    out.detail("standalone_samples",
               static_cast<double>(std::min(kStandaloneSamples, n)));

    if (!cfg.trace) {
      out.add("sim_cps", cycles / base.makespan_s, "cycles/s");
      out.add("setup_s", median(setup_s), "s");
      out.add("peak_rss_mb", base.rss_mb, "MB");
      out.add("latency_p50_ms", quantile(base.turnaround_ms, 0.50), "ms");
      out.add("latency_p90_ms", quantile(base.turnaround_ms, 0.90), "ms");
    } else {
      tmsim::obs::MetricsRegistry reg;
      FarmOptions topt = opt;
      topt.metrics = &reg;
      Sweep traced;
      {
        const std::unique_ptr<SimFarm> tfarm = make_farm(topt);
        run_sweep(*tfarm, seed, 0.0, 0, base.specs, traced);
        tfarm->shutdown();
      }
      for (std::size_t i = 0; i < traced.results.size(); ++i) {
        out.attempted += 1;
        std::string why;
        if (i >= base.results.size() ||
            !tmsim::farm::results_equivalent(traced.results[i], base.results[i],
                                             &why)) {
          ++out.failed;
          out.fail("traced job " + traced.specs[i].name +
                   " differs from its untraced run: " + why);
        }
      }
      const double tn = static_cast<double>(traced.results.size());
      std::vector<double> queue_wait_s;
      double exec_s[2] = {0.0, 0.0};
      double kind_cycles[2] = {0.0, 0.0};
      for (std::size_t i = 0; i < traced.results.size(); ++i) {
        const JobResult& r = traced.results[i];
        const int k = traced.specs[i].kind == JobKind::kHostedFpga ? 1 : 0;
        queue_wait_s.push_back(r.queue_seconds * traced.speed_factor);
        exec_s[k] += r.exec_seconds * traced.speed_factor;
        kind_cycles[k] += static_cast<double>(r.cycles_simulated);
      }
      // Busy share of the sweep's makespan. The farm's own
      // farm.worker.utilization gauge divides by the steady clock's
      // epoch unless a timeline is attached, so it is not used here.
      const double util = sum_counter(reg, "farm.stage.run_us") * 1e-6 /
                          (traced.makespan_wall_s * kWorkers);
      const double hits = sum_counter(reg, "farm.worker.cache_hits");
      const double misses = sum_counter(reg, "farm.worker.cache_misses");
      const double traced_jobs_per_s = tn / traced.makespan_s;

      out.add("farm.jobs_per_s", jobs_per_s, "1/s");
      out.add("farm.submit_us_p50", quantile(traced.submit_us, 0.50), "us");
      out.add("farm.submit_us_p99", quantile(traced.submit_us, 0.99), "us");
      out.add("farm.queue_full_per_job",
              static_cast<double>(traced.queue_full) / tn, "rejects/job");
      out.add("farm.queue_wait_s_p50", median(queue_wait_s), "s");
      out.add("farm.exec_us_per_cycle.core",
              kind_cycles[0] > 0 ? exec_s[0] * 1e6 / kind_cycles[0] : 0.0,
              "us/cycle");
      out.add("farm.exec_us_per_cycle.hosted",
              kind_cycles[1] > 0 ? exec_s[1] * 1e6 / kind_cycles[1] : 0.0,
              "us/cycle");
      out.add("farm.stage.attach_us_per_job",
              sum_counter(reg, "farm.stage.attach_us") * traced.speed_factor / tn,
              "us/job");
      out.add("farm.stage.publish_us_per_job",
              sum_counter(reg, "farm.stage.publish_us") * traced.speed_factor / tn,
              "us/job");
      out.add("farm.worker.utilization", util, "ratio");
      out.add("farm.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
      out.add("farm.batched_job_ratio",
              sum_counter(reg, "farm.batch.batched_jobs") / tn, "ratio");
      out.add("trace_overhead_pct",
              (jobs_per_s / traced_jobs_per_s - 1.0) * 100.0, "%");
      out.detail("trace.jobs_per_s_traced", traced_jobs_per_s);
      out.detail("trace.submit_samples",
                 static_cast<double>(traced.submit_us.size()));
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
