#include "farm/result_store.h"

#include <algorithm>

#include "common/error.h"

namespace tmsim::farm {

ResultStore::ResultStore(std::size_t completion_feed_depth)
    : feed_capacity_(completion_feed_depth == 0 ? 1 : completion_feed_depth) {}

bool ResultStore::put(JobResult result) {
  const std::uint64_t id = result.job_id;
  bool dropped_one = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TMSIM_CHECK_MSG(results_.emplace(id, std::move(result)).second,
                    "duplicate result for a job id");
    order_.push_back(id);
    // Completion feed: drop-oldest on overflow (the §5.2 monitor-buffer
    // discipline — a slow consumer must not stall the producer).
    if (feed_.size() == feed_capacity_) {
      feed_.pop_front();
      ++dropped_;
      dropped_one = true;
    }
    feed_.push_back(id);
  }
  cv_.notify_all();
  return dropped_one;
}

std::optional<JobResult> ResultStore::get(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = results_.find(job_id);
  if (it == results_.end()) {
    return std::nullopt;
  }
  return it->second;
}

JobResult ResultStore::wait(std::uint64_t job_id) const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return results_.contains(job_id); });
  return results_.at(job_id);
}

std::vector<JobResult> ResultStore::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobResult> out;
  out.reserve(order_.size());
  for (const std::uint64_t id : order_) {
    out.push_back(results_.at(id));
  }
  return out;
}

std::size_t ResultStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return results_.size();
}

std::vector<std::uint64_t> ResultStore::take_feed(std::size_t max_ids) {
  const std::size_t n =
      max_ids == 0 ? feed_.size() : std::min(max_ids, feed_.size());
  const auto end = feed_.begin() + static_cast<std::ptrdiff_t>(n);
  std::vector<std::uint64_t> ids(feed_.begin(), end);
  feed_.erase(feed_.begin(), end);
  return ids;
}

std::vector<std::uint64_t> ResultStore::drain_completions() {
  std::lock_guard<std::mutex> lock(mu_);
  return take_feed(0);
}

std::vector<std::uint64_t> ResultStore::next_batch(
    std::size_t max_ids, std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [&] { return !feed_.empty(); });
  return take_feed(max_ids);
}

std::uint64_t ResultStore::completions_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::size_t ResultStore::feed_fill() const {
  std::lock_guard<std::mutex> lock(mu_);
  return feed_.size();
}

std::size_t ResultStore::feed_capacity() const { return feed_capacity_; }

}  // namespace tmsim::farm
