// Queue policy of the ensemble service: a bounded priority + FIFO queue.
// Jobs order by (priority desc, submit sequence asc); a job is eligible
// when its backoff gate (ready_at) has passed and its rank demand fits
// the free budget.  Smaller jobs may backfill past a best job that does
// not fit, but only kMaxBypasses times — after that the queue holds
// ranks for it, so backfill cannot starve a wide high-priority job
// (see pop_ready).  The Scheduler is a pure policy object — it owns no
// lock; the WorkerPool serializes every call under its mutex.  Capacity
// bounds only external submissions (backpressure): preempted and
// retrying jobs re-enter past the bound, otherwise a full queue could
// deadlock a yield.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <vector>

#include "service/job.hpp"

namespace ca::service {

class Scheduler {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit Scheduler(std::size_t capacity) : capacity_(capacity) {}

  /// Aging (anti-starvation): a queued job's effective priority grows by
  /// `rate` priority points per second spent waiting since it last
  /// entered the queue, so a long-waiting low-priority job eventually
  /// outranks fresh high-priority work.  0 (the default) disables aging
  /// and restores strict (priority, FIFO) order.
  void set_aging_rate(double rate) { aging_rate_ = rate; }
  double aging_rate() const { return aging_rate_; }
  /// spec.priority plus the accumulated aging boost at `now`.
  double effective_priority(const Job& j, TimePoint now) const;

  std::size_t capacity() const { return capacity_; }
  bool empty() const { return queue_.empty(); }
  /// Whether a NEW submission must wait (backpressure).
  bool full() const { return queue_.size() >= capacity_; }

  /// Enqueues; assigns the FIFO sequence on first entry.  The capacity
  /// bound is advisory (full()): the WorkerPool blocks NEW submissions on
  /// it but re-enters preempted/retrying jobs unconditionally.
  void push(std::shared_ptr<Job> job);

  /// A non-fitting head job tolerates this many backfills before the
  /// scheduler holds ranks for it (see pop_ready).
  static constexpr int kMaxBypasses = 4;

  /// Removes and returns the best ready job (ready_at <= now) that fits
  /// free_ranks; null when none qualifies.  When the BEST ready job does
  /// not fit, smaller lower-precedence jobs may be returned in its place
  /// (backfill keeps the pool busy while preemption frees ranks for it) —
  /// but only kMaxBypasses times: each backfill can steal ranks that
  /// preemption just freed for the head job, so unbounded backfill plus a
  /// steady stream of small jobs would starve it forever.  Once the head
  /// job's bypass budget is spent, pop_ready returns null until it fits,
  /// letting freed ranks accrue to it.
  std::shared_ptr<Job> pop_ready(TimePoint now, int free_ranks);

  /// Best job past its backoff gate regardless of rank fit (what the
  /// pool's preemption logic wants to make room for); null when none.
  const Job* peek_ready(TimePoint now) const;
  /// Mutable peek for the pool's elastic refit: the job stays queued, but
  /// the pool may shrink its active_dims in place so the next pop fits.
  Job* peek_ready(TimePoint now);

  /// Earliest backoff expiry among jobs still gated at `now`
  /// (TimePoint::max() when none are gated) — how long a idle worker may
  /// sleep before a retry becomes eligible.
  TimePoint next_ready_after(TimePoint now) const;

  /// Removes and returns every queued job whose rank demand exceeds
  /// `max_ranks`.  Called when the pool's usable budget shrinks
  /// permanently (a rank retired): the pool reshapes or fails each,
  /// instead of letting it wait forever for capacity that cannot return.
  std::vector<std::shared_ptr<Job>> remove_over_demand(int max_ranks);

 private:
  /// True when a should run before b at `now` (effective priority desc,
  /// FIFO sequence asc).  With aging off this is exactly the static
  /// (priority, sequence) order.
  bool before(const Job& a, const Job& b, TimePoint now) const {
    const double pa = effective_priority(a, now);
    const double pb = effective_priority(b, now);
    if (pa != pb) return pa > pb;
    return a.sequence < b.sequence;
  }

  double aging_rate_ = 0.0;
  std::size_t capacity_;
  std::uint64_t next_sequence_ = 0;
  std::vector<std::shared_ptr<Job>> queue_;  // unordered; scans are tiny
};

}  // namespace ca::service
