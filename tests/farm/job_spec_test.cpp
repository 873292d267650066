// JobSpec contract tests: canonical serialization round-trips exactly,
// fingerprints identify the request (and nothing else), malformed text
// never enters the queue, and derive_seed keeps every random consumer on
// its own stream.
#include "farm/job_spec.h"

#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "farm/admission.h"
#include "farm/job_result.h"
#include "farm/session.h"

namespace tmsim::farm {
namespace {

JobSpec rich_spec() {
  JobSpec spec;
  spec.name = "rt.job-1_x";
  spec.kind = JobKind::kHostedFpga;
  spec.priority = Priority::kBatch;
  spec.net.width = 5;
  spec.net.height = 3;
  spec.net.topology = noc::Topology::kMesh;
  spec.net.router.num_vcs = 4;
  spec.net.router.queue_depth = 3;
  spec.workload.be_load = 0.12345678901234567;
  spec.workload.be_vcs = {3};
  spec.workload.be_bytes = 18;
  traffic::GtStream s;
  s.src = 1;
  s.dst = 7;
  s.vc = 0;
  s.period = 640;
  s.phase = 3;
  s.bytes = 256;
  spec.workload.gt_streams.push_back(s);
  spec.workload.stop_on_overload = false;
  spec.workload.overload_threshold = 4096;
  spec.engine.num_shards = 2;
  spec.seed = 0xdeadbeefcafeull;
  spec.cycles = 4242;
  spec.faults.read_flip = 0.25;
  spec.faults.stuck_busy = 0.125;
  spec.faults.stuck_busy_reads = 5;
  return spec;
}

TEST(JobSpec, SerializeRoundTripsExactly) {
  const JobSpec spec = rich_spec();
  const JobSpec back = JobSpec::deserialize(spec.serialize());
  EXPECT_EQ(back, spec);
  // And the round-trip is a fixed point of serialization itself.
  EXPECT_EQ(back.serialize(), spec.serialize());
}

TEST(JobSpec, DefaultSpecRoundTrips) {
  const JobSpec spec;
  EXPECT_EQ(JobSpec::deserialize(spec.serialize()), spec);
}

TEST(JobSpec, FingerprintIsStableAndSensitive) {
  const JobSpec a = rich_spec();
  JobSpec b = rich_spec();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Identity survives a serialization round trip — queue, log, resubmit.
  EXPECT_EQ(JobSpec::deserialize(a.serialize()).fingerprint(),
            a.fingerprint());
  // Any field change moves the fingerprint.
  b.seed ^= 1;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = rich_spec();
  b.workload.be_load += 1e-9;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = rich_spec();
  b.priority = Priority::kInteractive;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(JobSpec, FormatVersionLeadsTheSerializedFormAndGates) {
  // The stable form is self-versioned: `v=<kSpecFormatVersion>` is the
  // first token, so a decoder can gate before parsing anything else.
  const JobSpec spec = rich_spec();
  const std::string text = spec.serialize();
  EXPECT_EQ(text.rfind("v=" + std::to_string(kSpecFormatVersion), 0), 0u)
      << text;
  EXPECT_EQ(JobSpec::deserialize(text), spec);

  // A missing `v` token is the pre-versioning format — version 1, still
  // accepted (old queue dumps and replay tuples keep working).
  JobSpec named;
  named.name = "legacy";
  const std::string legacy = "name=legacy";
  EXPECT_EQ(JobSpec::deserialize(legacy).name, named.name);

  // Any other version is rejected outright — never half-parsed.
  EXPECT_THROW(JobSpec::deserialize("v=2 name=future"), std::exception);
  EXPECT_THROW(JobSpec::deserialize("v=0 name=ancient"), std::exception);
  EXPECT_THROW(JobSpec::deserialize("v=junk name=x"), std::exception);
}

TEST(JobSpec, DeserializeFuzzNeverCrashes) {
  // Deterministic mutation fuzz over the serialized form: any corrupted
  // spec text either round-trips to a valid spec or throws — the parser
  // must never crash or accept garbage silently.
  const std::string good = rich_spec().serialize();
  SplitMix64 rng(0x5bec);
  int threw = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string bad = good;
    const std::size_t edits = 1 + rng.next_below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t off = rng.next_below(bad.size());
      bad[off] = static_cast<char>(32 + rng.next_below(95));
    }
    try {
      const JobSpec parsed = JobSpec::deserialize(bad);
      // If it parsed, its canonical form must itself round-trip.
      EXPECT_EQ(JobSpec::deserialize(parsed.serialize()), parsed);
    } catch (const std::exception&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0) << "the fuzz stopped fuzzing";
}

TEST(JobSpec, DeserializeRejectsUnknownKeysAndGarbage) {
  EXPECT_THROW(JobSpec::deserialize("bogus_key=1"), std::exception);
  EXPECT_THROW(JobSpec::deserialize("cycles=12junk"), std::exception);
  EXPECT_THROW(JobSpec::deserialize("be_load=notanumber"), std::exception);
  EXPECT_THROW(JobSpec::deserialize("kind=3"), std::exception);
}

TEST(JobSpec, ValidateCatchesUnsatisfiableSpecs) {
  {
    JobSpec s;
    s.name = "spaces are bad";
    EXPECT_THROW(s.validate(), std::exception);
  }
  {
    JobSpec s;
    s.cycles = 0;
    EXPECT_THROW(s.validate(), std::exception);
  }
  {
    JobSpec s;  // fig1_gt and explicit streams are mutually exclusive
    s.workload.fig1_gt = true;
    s.workload.gt_streams.resize(1);
    EXPECT_THROW(s.validate(), std::exception);
  }
  {
    JobSpec s;  // the hosted stack has no warmup support
    s.kind = JobKind::kHostedFpga;
    s.workload.warmup_cycles = 10;
    EXPECT_THROW(s.validate(), std::exception);
  }
  {
    JobSpec s;  // fault injection needs the bus — core jobs have none
    s.faults.read_flip = 0.1;
    EXPECT_THROW(s.validate(), std::exception);
  }
  {
    JobSpec s;
    s.workload.be_load = 1.5;
    EXPECT_THROW(s.validate(), std::exception);
  }
  EXPECT_NO_THROW(rich_spec().validate());
  EXPECT_NO_THROW(JobSpec{}.validate());
}

TEST(JobSpec, ValidateRejectsEnginePoliciesTheJobCannotHonour) {
  JobSpec core_job;
  core_job.net.width = 2;
  core_job.net.height = 2;
  for (const noc::Topology t : {noc::Topology::kMesh, noc::Topology::kTorus}) {
    core_job.net.topology = t;
    core_job.engine.policy = core::SchedulePolicy::kStatic;
    // The engine refuses a static schedule on a NoC (its links are
    // combinational), so admission must refuse it too…
    EXPECT_THROW(core::SeqNocSimulation(core_job.net, core_job.engine),
                 std::exception);
    EXPECT_THROW(core_job.validate(), std::exception);
    // …while the other schedules stay valid for core jobs.
    core_job.engine.policy = core::SchedulePolicy::kTwoPhaseOracle;
    EXPECT_NO_THROW(core_job.validate());
    core_job.engine.policy = core::SchedulePolicy::kDynamic;
    EXPECT_NO_THROW(core_job.validate());
  }

  // A hosted job always runs the dynamic schedule: any other policy is
  // rejected instead of silently dropped.
  JobSpec hosted = core_job;
  hosted.kind = JobKind::kHostedFpga;
  EXPECT_NO_THROW(hosted.validate());
  for (const core::SchedulePolicy p : {core::SchedulePolicy::kStatic,
                                       core::SchedulePolicy::kTwoPhaseOracle}) {
    hosted.engine.policy = p;
    EXPECT_THROW(hosted.validate(), std::exception);
  }

  // Admission turns both into structured kInvalidSpec rejects.
  AdmissionQueue q(4, 1'000'000);
  hosted.engine.policy = core::SchedulePolicy::kTwoPhaseOracle;
  const SubmitOutcome hosted_out = q.submit(hosted, 0);
  EXPECT_FALSE(hosted_out.accepted);
  EXPECT_EQ(hosted_out.reason, RejectReason::kInvalidSpec);
  EXPECT_NE(hosted_out.detail.find("dynamic"), std::string::npos)
      << hosted_out.detail;
  core_job.engine.policy = core::SchedulePolicy::kStatic;
  const SubmitOutcome static_out = q.submit(core_job, 0);
  EXPECT_FALSE(static_out.accepted);
  EXPECT_EQ(static_out.reason, RejectReason::kInvalidSpec);
  EXPECT_NE(static_out.detail.find("combinational"), std::string::npos)
      << static_out.detail;
  EXPECT_EQ(q.depth(), 0u);
}

TEST(JobSpec, WorklistSchedulerIsACompiledAlias) {
  // `scheduler=worklist` names the event-driven scheduler the gated
  // compiled schedule replaced. Job texts that name it keep parsing and
  // printing under that name, and run the compiled path: the results
  // match compiled and the round-robin reference bit for bit.
  for (std::uint64_t i = 0; i < 6; ++i) {
    SplitMix64 rng(0xa11a5ull + i);
    JobSpec spec;
    spec.name = "alias-" + std::to_string(i);
    spec.net.width = 2 + rng.next_below(3);
    spec.net.height = 2 + rng.next_below(2);
    spec.seed = rng.next();
    spec.cycles = 80 + rng.next_below(80);
    spec.engine.num_shards = 1 + rng.next_below(2);
    spec.workload.be_load =
        0.02 + 0.04 * static_cast<double>(rng.next_below(4));
    spec.engine.scheduler = core::SchedulerKind::kWorklist;
    SCOPED_TRACE(spec.serialize());

    const std::string text = spec.serialize();
    EXPECT_NE(text.find("scheduler=worklist"), std::string::npos);
    const JobSpec back = JobSpec::deserialize(text);
    EXPECT_EQ(back, spec);
    EXPECT_EQ(back.serialize(), text);

    const JobResult wl = run_job_standalone(spec);
    ASSERT_EQ(wl.status, JobStatus::kDone) << wl.error;
    for (const core::SchedulerKind other :
         {core::SchedulerKind::kCompiled, core::SchedulerKind::kRoundRobin}) {
      JobSpec o = spec;
      o.engine.scheduler = other;
      JobResult r = run_job_standalone(o);
      // Same job but for the scheduler name, which the fingerprint hashes.
      r.spec_fingerprint = wl.spec_fingerprint;
      std::string why;
      EXPECT_TRUE(results_equivalent(wl, r, &why))
          << core::scheduler_kind_name(other) << ": " << why;
    }
  }
}

TEST(JobSpec, DeriveSeedSeparatesDomains) {
  const std::uint64_t base = 42;
  std::set<std::uint64_t> seeds;
  for (const char* domain : {"stimuli", "host-rng", "faults", "schedule"}) {
    const std::uint64_t s = derive_seed(base, domain);
    EXPECT_NE(s, 0u) << domain;       // 0 means "unseeded" to some sinks
    EXPECT_NE(s, base) << domain;
    EXPECT_TRUE(seeds.insert(s).second) << "collision on " << domain;
    // Deterministic: same (base, domain) → same sub-seed.
    EXPECT_EQ(derive_seed(base, domain), s);
    // And base-sensitive.
    EXPECT_NE(derive_seed(base + 1, domain), s);
  }
}

}  // namespace
}  // namespace tmsim::farm
