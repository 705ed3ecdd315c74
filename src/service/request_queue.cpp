#include "service/request_queue.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "util/stats.hpp"

namespace treesched {

RequestQueue::RequestQueue(RequestQueueConfig config) : config_(config) {}

bool RequestQueue::reserve_pending() {
  if (config_.max_pending == 0) {
    pending_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (pending_.fetch_add(1, std::memory_order_relaxed) >=
      config_.max_pending) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

std::optional<std::uint64_t> RequestQueue::push(
    ScheduleRequest req, std::shared_ptr<detail::TicketState> ticket) {
  const Clock::time_point now = Clock::now();
  const Priority cls = req.priority;
  counters(cls).admitted.fetch_add(1, std::memory_order_relaxed);
  if (!reserve_pending()) {
    counters(cls).rejected.fetch_add(1, std::memory_order_relaxed);
    detail::complete_ticket(
        ticket,
        ServiceError{ErrorCode::kQueueFull,
                     "queue full: " + std::to_string(config_.max_pending) +
                         " requests already pending",
                     nullptr});
    return std::nullopt;
  }
  pending_by_class_[static_cast<std::size_t>(cls)].fetch_add(
      1, std::memory_order_relaxed);

  Stored stored;
  stored.entry.request = std::move(req);
  stored.entry.ticket = std::move(ticket);
  stored.entry.submitted = cls;
  stored.entry.admitted = now;
  // Budgets beyond ~30 years (inf included) mean "no deadline": converting
  // a double past the clock-rep range would be UB, not a far-future point.
  constexpr double kMaxDeadlineMs = 1e12;
  const double deadline_ms = stored.entry.request.deadline_ms;
  if (deadline_ms > 0.0 && deadline_ms < kMaxDeadlineMs) {
    stored.entry.deadline =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(deadline_ms));
  }
  stored.last_aged = now;
  stored.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t seq = stored.seq;
  const EdfKey key{stored.entry.deadline, seq};
  const int c = static_cast<int>(cls);

  const std::lock_guard<std::mutex> lock(mutex_);
  Bucket& b = bucket(c);
  b.by_age.emplace(stored.last_aged, key);
  b.items.emplace(key, std::move(stored));
  by_seq_.emplace(seq, std::make_pair(c, key.deadline));
  return seq;
}

void RequestQueue::age_pending(Clock::time_point now) {
  if (config_.age_after.count() <= 0) return;
  // Top-down: an entry promoted into class c this round was stamped
  // last_aged = now, so it cannot climb two levels in one sweep.
  for (int cls = 1; cls < kPriorityClasses; ++cls) {
    Bucket& from = bucket(cls);
    while (!from.by_age.empty() &&
           from.by_age.begin()->first + config_.age_after <= now) {
      const EdfKey key = from.by_age.begin()->second;
      from.by_age.erase(from.by_age.begin());
      auto it = from.items.find(key);
      Stored stored = std::move(it->second);
      from.items.erase(it);
      stored.last_aged = now;
      counters(stored.entry.submitted)
          .aged.fetch_add(1, std::memory_order_relaxed);
      by_seq_[key.seq].first = cls - 1;
      Bucket& to = bucket(cls - 1);
      to.by_age.emplace(stored.last_aged, key);
      to.items.emplace(key, std::move(stored));
    }
  }
}

RequestQueue::Stored RequestQueue::remove_stored(int cls, const EdfKey& key) {
  Bucket& b = bucket(cls);
  auto it = b.items.find(key);
  Stored stored = std::move(it->second);
  // The aging index holds exactly one entry per item; find it among the
  // few sharing last_aged by the item's unique sequence number.
  auto range = b.by_age.equal_range(stored.last_aged);
  for (auto a = range.first; a != range.second; ++a) {
    if (a->second.seq == key.seq) {
      b.by_age.erase(a);
      break;
    }
  }
  b.items.erase(it);
  by_seq_.erase(key.seq);
  pending_.fetch_sub(1, std::memory_order_relaxed);
  pending_by_class_[static_cast<std::size_t>(stored.entry.submitted)]
      .fetch_sub(1, std::memory_order_relaxed);
  return stored;
}

void RequestQueue::record_wait(Priority cls, Clock::time_point admitted,
                               Clock::time_point now) {
  WaitRing& ring = wait_rings_[static_cast<std::size_t>(cls)];
  ring.samples[ring.count++ % kWaitSampleCap] =
      std::chrono::duration<double, std::milli>(now - admitted).count();
}

RequestQueue::PopResult RequestQueue::pop() {
  const Clock::time_point now = Clock::now();
  PopResult result;
  const std::lock_guard<std::mutex> lock(mutex_);
  age_pending(now);
  for (int cls = 0; cls < kPriorityClasses; ++cls) {
    Bucket& b = bucket(cls);
    while (!b.items.empty()) {
      const EdfKey key = b.items.begin()->first;  // EDF, then FIFO
      Stored stored = remove_stored(cls, key);
      record_wait(stored.entry.submitted, stored.entry.admitted, now);
      if (stored.entry.deadline <= now) {
        counters(stored.entry.submitted)
            .expired.fetch_add(1, std::memory_order_relaxed);
        result.expired.push_back(std::move(stored.entry));
        continue;  // expired entries are an EDF prefix; keep scanning
      }
      counters(stored.entry.submitted)
          .completed.fetch_add(1, std::memory_order_relaxed);
      result.entry = std::move(stored.entry);
      return result;
    }
  }
  return result;
}

bool RequestQueue::cancel(std::uint64_t seq) {
  Entry entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_seq_.find(seq);
    if (it == by_seq_.end()) return false;  // popped, cancelled, or unknown
    const auto [cls, deadline] = it->second;
    Stored stored = remove_stored(cls, EdfKey{deadline, seq});
    counters(stored.entry.submitted)
        .cancelled.fetch_add(1, std::memory_order_relaxed);
    entry = std::move(stored.entry);
  }
  // Settle outside the queue mutex: completion wakes ticket waiters and
  // must not nest their lock under ours.
  std::ostringstream os;
  os << "cancelled while queued: " << to_string(entry.submitted)
     << " request (" << entry.request.algo << ") spent "
     << std::chrono::duration<double, std::milli>(Clock::now() -
                                                  entry.admitted)
            .count()
     << " ms queued, never reached a worker";
  detail::complete_ticket(
      entry.ticket,
      ServiceError{ErrorCode::kCancelled, os.str(), nullptr});
  return true;
}

QueueStats RequestQueue::stats() const {
  QueueStats stats;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (int cls = 0; cls < kPriorityClasses; ++cls) {
    const auto i = static_cast<std::size_t>(cls);
    ClassQueueStats& out = stats.by_class[i];
    out.admitted = counters_[i].admitted.load(std::memory_order_relaxed);
    out.rejected = counters_[i].rejected.load(std::memory_order_relaxed);
    out.expired = counters_[i].expired.load(std::memory_order_relaxed);
    out.completed = counters_[i].completed.load(std::memory_order_relaxed);
    out.cancelled = counters_[i].cancelled.load(std::memory_order_relaxed);
    out.aged = counters_[i].aged.load(std::memory_order_relaxed);
    out.pending = pending_by_class_[i].load(std::memory_order_relaxed);
    const WaitRing& ring = wait_rings_[i];
    const std::size_t n = std::min(ring.count, kWaitSampleCap);
    if (n != 0) {
      std::vector<double> sorted(ring.samples.begin(),
                                 ring.samples.begin() +
                                     static_cast<std::ptrdiff_t>(n));
      std::sort(sorted.begin(), sorted.end());
      out.wait_ms_p50 = quantile_sorted(sorted, 0.50);
      out.wait_ms_p90 = quantile_sorted(sorted, 0.90);
      out.wait_ms_p99 = quantile_sorted(sorted, 0.99);
    }
  }
  return stats;
}

std::size_t RequestQueue::pending() const {
  return pending_.load(std::memory_order_relaxed);
}

}  // namespace treesched
