#include "comm/mailbox.hpp"

#include <algorithm>

#include "comm/error.hpp"
#include "comm/health.hpp"
#include "comm/runtime.hpp"
#include "obs/trace.hpp"

namespace ca::comm {
namespace {

const RunOptions& default_options() {
  static const RunOptions opts{};
  return opts;
}

bool matches(const Message& m, std::uint64_t comm_id, int src, int tag) {
  if (m.comm_id != comm_id) return false;
  if (src != kAnySource && m.src != src) return false;
  if (tag != kAnyTag && m.tag != tag) return false;
  return true;
}

}  // namespace

void Mailbox::configure(const RunOptions* options, FaultCounters* counters,
                        HealthBoard* health, int self_rank) {
  options_ = options;
  counters_ = counters;
  health_ = health;
  self_rank_ = self_rank;
}

void Mailbox::deliver(Message msg) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(Entry{std::move(msg), 0, false});
  }
  cv_.notify_all();
}

void Mailbox::deliver(Message msg, const FaultPlan::Injection& injection) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (injection.duplicate) {
      // The copy is enqueued first and visible immediately; the receiver
      // suppresses whichever of the two arrives second via the sequence
      // number.  (If the original is withheld, the copy stands in for it
      // exactly like a real network duplicate would.)
      queue_.push_back(Entry{msg, 0, false});
    }
    Entry e{std::move(msg), std::max(0, injection.delay_polls),
            injection.drop};
    queue_.push_back(std::move(e));
  }
  cv_.notify_all();
}

std::optional<Message> Mailbox::match_locked(std::uint64_t comm_id, int src,
                                             int tag) {
  // Triples that have an earlier invisible (delayed/withheld) entry are
  // blocked for this scan: taking a later message of the same triple
  // would break the per-sender FIFO guarantee.
  std::vector<TripleKey> blocked;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (!matches(it->msg, comm_id, src, tag)) {
      ++it;
      continue;
    }
    TripleKey key{it->msg.comm_id, it->msg.src, it->msg.tag};
    if (std::find(blocked.begin(), blocked.end(), key) != blocked.end()) {
      ++it;
      continue;
    }
    if (it->delay_polls > 0 || it->withheld) {
      blocked.push_back(key);
      ++it;
      continue;
    }
    if (it->msg.seq != 0) {
      std::uint64_t& last = taken_seq_[key];
      if (it->msg.seq <= last) {
        // Duplicate of an already-taken message: suppress transparently.
        if (counters_ != nullptr)
          counters_->recovered_duplicate.fetch_add(
              1, std::memory_order_relaxed);
        it = queue_.erase(it);
        continue;
      }
      last = it->msg.seq;
    }
    Message out = std::move(it->msg);
    queue_.erase(it);
    return out;
  }
  return std::nullopt;
}

void Mailbox::poll_locked(std::uint64_t comm_id, int src, int tag) {
  const RunOptions& opts = options_ != nullptr ? *options_ : default_options();
  for (Entry& e : queue_) {
    if (e.delay_polls > 0) {
      if (--e.delay_polls == 0 && counters_ != nullptr)
        counters_->recovered_delay.fetch_add(1, std::memory_order_relaxed);
    }
    // The receiver's poll doubles as the retransmission request of the
    // eager protocol: a withheld entry the receiver is waiting for is
    // redelivered from the sender-side copy (which this entry models).
    if (e.withheld && opts.max_resends > 0 &&
        matches(e.msg, comm_id, src, tag)) {
      e.withheld = false;
      if (counters_ != nullptr)
        counters_->recovered_drop.fetch_add(1, std::memory_order_relaxed);
      if (tracer_ != nullptr)
        tracer_->instant("retransmit", "comm",
                         "src=" + std::to_string(e.msg.src) +
                             " tag=" + std::to_string(e.msg.tag));
    }
  }
}

void Mailbox::verify(const Message& msg) const {
  if (msg.checksum == 0) return;
  if (payload_checksum(msg.payload) == msg.checksum) return;
  if (counters_ != nullptr)
    counters_->detected_checksum.fetch_add(1, std::memory_order_relaxed);
  if (tracer_ != nullptr)
    tracer_->instant("checksum_fail", "comm",
                     "src=" + std::to_string(msg.src) +
                         " tag=" + std::to_string(msg.tag));
  throw ChecksumError(msg.comm_id, msg.src, msg.tag);
}

Message Mailbox::receive(std::uint64_t comm_id, int src, int tag) {
  const RunOptions& opts = options_ != nullptr ? *options_ : default_options();
  const bool faulty = opts.faults != nullptr && opts.faults->enabled();
  // Watchdog: while blocked, keep stamping our own heartbeat and check the
  // awaited peer's.  Only active when opts.heartbeat_timeout > 0, so the
  // fault-free fast path keeps its single bounded wait.
  const bool watch = health_ != nullptr && self_rank_ >= 0 &&
                     opts.heartbeat_timeout.count() > 0;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + opts.recv_timeout;

  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (auto m = match_locked(comm_id, src, tag)) {
      verify(*m);
      return std::move(*m);
    }
    const auto now = std::chrono::steady_clock::now();
    if (watch) {
      health_->stamp(self_rank_);
      // A dead rank anywhere poisons the run: even receives from other
      // (healthy) ranks cannot complete the collective schedule, so fail
      // them all promptly and let the caller tear the attempt down.
      const int poisoned = health_->poisoned();
      if (poisoned >= 0) {
        if (counters_ != nullptr)
          counters_->detected_peer_dead.fetch_add(1,
                                                  std::memory_order_relaxed);
        if (tracer_ != nullptr)
          tracer_->instant("peer_dead", "comm",
                           "rank=" + std::to_string(poisoned));
        throw PeerDeadError(poisoned,
                            poisoned == self_rank_
                                ? "this rank was declared dead by its peers"
                                : "peer rank died");
      }
      if (src != kAnySource && !health_->finished(src) &&
          health_->age(src, now) > opts.heartbeat_timeout) {
        health_->mark_dead(src);
        if (counters_ != nullptr)
          counters_->detected_peer_dead.fetch_add(1,
                                                  std::memory_order_relaxed);
        if (tracer_ != nullptr)
          tracer_->instant("peer_dead", "comm",
                           "rank=" + std::to_string(src) + " heartbeat stale");
        throw PeerDeadError(src, "heartbeat older than heartbeat_timeout");
      }
    }
    if (now >= deadline) {
      if (counters_ != nullptr)
        counters_->detected_timeout.fetch_add(1, std::memory_order_relaxed);
      if (tracer_ != nullptr)
        tracer_->instant("recv_timeout", "comm",
                         "src=" + std::to_string(src) +
                             " tag=" + std::to_string(tag));
      const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
          now - start);
      throw TimeoutError(comm_id, src, tag, waited.count());
    }
    if (faulty || watch) {
      // Poll cadence: age delayed entries, request retransmissions, and
      // re-evaluate the watchdog well before the receive deadline.
      cv_.wait_until(lock, std::min(deadline, now + opts.poll_interval));
      if (faulty) poll_locked(comm_id, src, tag);
    } else {
      cv_.wait_until(lock, deadline);
    }
  }
}

}  // namespace ca::comm
