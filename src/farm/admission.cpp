#include "farm/admission.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace tmsim::farm {

namespace {

double steady_now_us() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) *
         1e-3;
}

/// Display track for queue-side spans (workers live on 100 + w).
constexpr std::uint32_t kQueueTid = 90;

/// First job at or after `it` whose backoff has expired; lowers
/// `next_eligible` to the earliest backoff passed on the way.
std::deque<QueuedJob>::iterator next_eligible_job(
    std::deque<QueuedJob>& cls, std::deque<QueuedJob>::iterator it,
    double now, double& next_eligible) {
  for (; it != cls.end(); ++it) {
    if (it->not_before_us <= now) {
      break;
    }
    next_eligible = std::min(next_eligible, it->not_before_us);
  }
  return it;
}

}  // namespace

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kStopped: return "stopped";
    case RejectReason::kInvalidSpec: return "invalid_spec";
    case RejectReason::kTooLarge: return "too_large";
  }
  return "?";
}

AdmissionQueue::AdmissionQueue(std::size_t capacity,
                               SystemCycle max_job_cycles,
                               std::function<double()> now_fn,
                               BatchKeyFn batch_key_fn, obs::Tracer* tracer)
    : capacity_(capacity),
      max_job_cycles_(max_job_cycles),
      now_fn_(now_fn ? std::move(now_fn) : steady_now_us),
      batch_key_fn_(std::move(batch_key_fn)),
      tracer_(tracer) {
  TMSIM_CHECK_MSG(capacity >= 1, "queue capacity must be positive");
}

std::size_t AdmissionQueue::enqueue(QueuedJob job, RequeuePosition pos) {
  if (batch_key_fn_) {
    job.batch_key = batch_key_fn_(job.spec);
  }
  const auto c = static_cast<std::size_t>(job.spec.priority);
  // Copy what the span needs before the move; record after the unlock.
  const obs::TraceContext trace = job.trace;
  const auto attempt = static_cast<std::uint32_t>(job.attempts);
  const double queued_us = job.queued_us;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::deque<QueuedJob>& cls = classes_[c];
    if (pos == RequeuePosition::kFront) {
      cls.push_front(std::move(job));
    } else {
      cls.push_back(std::move(job));
    }
    class_depth_[c].store(cls.size(), std::memory_order_relaxed);
    for (const std::deque<QueuedJob>& q : classes_) {
      depth += q.size();
    }
  }
  // After stop() every popper may be waiting for this very enqueue to
  // decide "drained"; wake them all so none keeps sleeping once it is in.
  if (stopped_.load()) {
    cv_.notify_all();
  } else {
    cv_.notify_one();
  }
  if (tracer_ != nullptr && trace.sampled()) {
    tracer_->span(trace, tracer_->alloc_span_id(), trace.span_id,
                  "admission.enqueue", attempt, kQueueTid, queued_us,
                  queued_us,
                  {{"class", priority_name(static_cast<Priority>(c))},
                   {"pos", pos == RequeuePosition::kFront ? "front" : "back"}});
  }
  return depth;
}

void AdmissionQueue::release_reservation() {
  fresh_queued_.fetch_sub(1);
  if (stopped_.load()) {
    // A stopped popper checks fresh_queued_ under mu_ before it sleeps;
    // the empty critical section keeps this wakeup from slipping between.
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }
}

SubmitOutcome AdmissionQueue::submit(JobSpec spec, double now_us,
                                     const AcceptHook& on_accept,
                                     const obs::TraceContext* remote) {
  SubmitOutcome out;
  out.queue_capacity = capacity_;
  // Validate outside any lock: validation walks GT stream paths and must
  // not serialize submitters against each other.
  try {
    spec.validate();
  } catch (const std::exception& e) {
    out.reason = RejectReason::kInvalidSpec;
    out.detail = e.what();
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  if (spec.cycles > max_job_cycles_) {
    out.reason = RejectReason::kTooLarge;
    out.detail = "cycle budget " + std::to_string(spec.cycles) +
                 " exceeds the farm ceiling " +
                 std::to_string(max_job_cycles_);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  // Capacity is a lock-free reservation: claim a fresh slot, give it
  // back on rejection. The bound stays strict under concurrent submits.
  // Reserving *before* the stop check (both seq_cst) orders the submit
  // against stop(): either it sees stopped_ and rejects, or a stopped
  // popper sees the reservation and waits for the enqueue — an accepted
  // job is never stranded behind a popper that reported "drained".
  const std::size_t fresh_before = fresh_queued_.fetch_add(1);
  if (stopped_.load()) {
    release_reservation();
    out.reason = RejectReason::kStopped;
    out.detail = "farm is shutting down";
    out.queue_depth = depth();
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  if (fresh_before >= capacity_) {
    release_reservation();
    out.reason = RejectReason::kQueueFull;
    out.queue_depth = depth();
    // Deterministic backpressure hint: a pure function of the fresh
    // backlog, so identical rejection states yield identical hints (see
    // the header's backpressure contract).
    out.retry_after_us =
        kRetryAfterUsPerJob * static_cast<double>(fresh_before);
    out.detail = "admission queue full: " + std::to_string(fresh_before) +
                 "/" + std::to_string(capacity_) + " fresh jobs queued (" +
                 std::to_string(out.queue_depth) +
                 " total); suggest retrying in " +
                 std::to_string(
                     static_cast<std::uint64_t>(out.retry_after_us)) +
                 "us";
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  QueuedJob job;
  job.job_id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  job.spec = std::move(spec);
  job.submitted_us = now_us;
  job.queued_us = now_us;
  // Head-sample *before* the fingerprint hash: unsampled jobs (the
  // common case at 1-in-N) skip all tracing work, not just storage.
  // Remote submissions carrying a client trace are always sampled —
  // the client already opened its half of the trace.
  const bool remote_traced = remote != nullptr && remote->trace_id != 0;
  if (tracer_ != nullptr && (remote_traced || tracer_->should_sample())) {
    job.trace = tracer_->start_trace(job.spec.fingerprint());
    if (remote_traced) {
      // Span *links*, not parentage: the client's trace is a separate
      // tree (trace_validate wants exactly one root per trace), so the
      // wire crossing is recorded as link attributes on the submit span.
      tracer_->span(job.trace, tracer_->alloc_span_id(), job.trace.span_id,
                    "farm.submit", 0, kQueueTid, now_us, now_us,
                    {{"job", std::to_string(job.job_id)},
                     {"name", job.spec.name},
                     {"link.client_trace", std::to_string(remote->trace_id)},
                     {"link.client_span", std::to_string(remote->span_id)}});
    } else {
      tracer_->span(job.trace, tracer_->alloc_span_id(), job.trace.span_id,
                    "farm.submit", 0, kQueueTid, now_us, now_us,
                    {{"job", std::to_string(job.job_id)},
                     {"name", job.spec.name}});
    }
  }
  if (job.spec.deadline_ms > 0) {
    job.deadline_at_us =
        now_us + static_cast<double>(job.spec.deadline_ms) * 1e3;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  out.accepted = true;
  out.job_id = job.job_id;
  out.trace = job.trace;
  // The accept hook runs before the job is visible to any popper, and
  // outside the queue mutex, so the submit still locks exactly once.
  if (on_accept) {
    on_accept(job);
  }
  out.queue_depth = enqueue(std::move(job), RequeuePosition::kBack);
  return out;
}

bool AdmissionQueue::requeue(QueuedJob job, double now_us,
                             RequeuePosition pos) {
  // Deliberately allowed after stop(): admitted work must always be able
  // to come back (returning false would strand the session), and
  // shutdown drains the backlog through pop_blocking() anyway.
  job.queued_us = now_us;
  job.fresh = false;
  enqueue(std::move(job), pos);
  return true;
}

std::vector<QueuedJob> AdmissionQueue::pop_batch_blocking(
    std::size_t max_batch) {
  TMSIM_CHECK_MSG(max_batch >= 1, "batch size must be positive");
  std::vector<QueuedJob> batch;
  for (;;) {
    // The injected clock is read outside the mutex; a slightly early
    // `now` only defers a just-expired backoff to the next scan.
    const double now = now_fn_();
    std::unique_lock<std::mutex> lock(mu_);
    double next_eligible = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < kNumPriorities && batch.empty(); ++c) {
      std::deque<QueuedJob>& cls = classes_[c];
      auto it = next_eligible_job(cls, cls.begin(), now, next_eligible);
      if (it == cls.end()) {
        continue;
      }
      const std::uint64_t key = it->batch_key;
      // Batch growth never skips or overtakes: it only extends while the
      // very next eligible job of the class shares the head's key.
      for (;;) {
        if (it->fresh) {
          fresh_queued_.fetch_sub(1, std::memory_order_acq_rel);
          it->fresh = false;
        }
        batch.push_back(std::move(*it));
        it = cls.erase(it);
        if (batch.size() == max_batch || !batch_key_fn_ || key == 0) {
          break;
        }
        double ignored = std::numeric_limits<double>::infinity();
        it = next_eligible_job(cls, it, now, ignored);
        if (it == cls.end() || it->batch_key != key) {
          break;
        }
      }
      class_depth_[c].store(cls.size(), std::memory_order_relaxed);
    }
    if (!batch.empty()) {
      break;  // the lock is released before tracing
    }
    if (next_eligible < std::numeric_limits<double>::infinity()) {
      // Only backoff'd jobs remain (stopped or not — admitted work is
      // drained either way). Sleep until the earliest becomes eligible
      // or an enqueue changes the picture.
      cv_.wait_for(lock, std::chrono::microseconds(static_cast<std::int64_t>(
                             std::max(1.0, next_eligible - now))));
      continue;
    }
    if (stopped_.load() && fresh_queued_.load() == 0) {
      return batch;  // empty: stopped and drained
    }
    cv_.wait(lock);
  }
  if (tracer_ != nullptr) {
    const double end = now_fn_();
    for (const QueuedJob& j : batch) {
      if (j.trace.sampled()) {
        // The queue-wait span: last (re)enqueue → this dequeue.
        tracer_->span(j.trace, tracer_->alloc_span_id(), j.trace.span_id,
                      "admission.dequeue",
                      static_cast<std::uint32_t>(j.attempts), kQueueTid,
                      j.queued_us, end,
                      {{"batch", std::to_string(batch.size())}});
      }
    }
  }
  return batch;
}

std::optional<QueuedJob> AdmissionQueue::pop_blocking() {
  std::vector<QueuedJob> batch = pop_batch_blocking(1);
  if (batch.empty()) {
    return std::nullopt;
  }
  return std::move(batch.front());
}

bool AdmissionQueue::has_higher_than(Priority p) const {
  const auto top = static_cast<std::size_t>(p);
  bool any = false;
  for (std::size_t c = 0; c < top; ++c) {
    any = any || class_depth_[c].load(std::memory_order_relaxed) > 0;
  }
  if (!any) {
    return false;  // lock-free fast path: every higher class is empty
  }
  const double now = now_fn_();
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t c = 0; c < top; ++c) {
    for (const QueuedJob& job : classes_[c]) {
      if (job.not_before_us <= now) {
        return true;
      }
    }
  }
  return false;
}

void AdmissionQueue::stop() {
  stopped_.store(true);
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
}

bool AdmissionQueue::stopped() const {
  return stopped_.load(std::memory_order_acquire);
}

std::size_t AdmissionQueue::depth() const {
  std::size_t total = 0;
  for (const auto& d : class_depth_) {
    total += d.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t AdmissionQueue::depth(Priority p) const {
  return class_depth_[static_cast<std::size_t>(p)].load(
      std::memory_order_relaxed);
}

std::uint64_t AdmissionQueue::jobs_submitted() const {
  return submitted_.load(std::memory_order_relaxed);
}

std::uint64_t AdmissionQueue::jobs_rejected() const {
  return rejected_.load(std::memory_order_relaxed);
}

bool AdmissionQueue::issued(std::uint64_t job_id) const {
  return job_id != 0 && job_id < next_job_id_.load(std::memory_order_relaxed);
}

std::array<AdmissionQueue::ClassDepth, kNumPriorities>
AdmissionQueue::introspect_classes() const {
  std::array<ClassDepth, kNumPriorities> out{};
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t c = 0; c < kNumPriorities; ++c) {
    out[c].depth = classes_[c].size();
    if (out[c].depth == 0) {
      continue;
    }
    // A front requeue resets queued_us, so the deque front is not
    // necessarily the oldest: scan the class.
    out[c].oldest_queued_us = classes_[c].front().queued_us;
    for (const QueuedJob& j : classes_[c]) {
      out[c].oldest_queued_us = std::min(out[c].oldest_queued_us, j.queued_us);
    }
  }
  return out;
}

}  // namespace tmsim::farm
