// Per-rank mailbox: an unbounded MPSC queue with (comm, src, tag) matching.
// Senders deliver complete messages (eager protocol); receivers block on a
// condition variable until a matching message exists.  FIFO order is
// preserved per (comm, src, tag) triple, which gives the non-overtaking
// guarantee MPI point-to-point requires.
//
// Every blocking receive is bounded: after RunOptions::recv_timeout the
// wait raises TimeoutError instead of spinning forever.  When a FaultPlan
// is active the mailbox also implements the defensive half of the fault
// model: delayed entries become visible after N receive polls, withheld
// ("dropped") entries are retransmitted when the receiver's poll loop asks
// for them, duplicate entries are suppressed via sequence numbers, and
// matched payloads are checksum-verified (ChecksumError on mismatch).
// Entries that are delayed or withheld block later messages of the same
// (comm, src, tag) triple so the non-overtaking guarantee survives
// injection.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>

#include "comm/fault.hpp"
#include "comm/message.hpp"

namespace ca::obs {
class Tracer;
}

namespace ca::comm {

struct RunOptions;
class HealthBoard;

class Mailbox {
 public:
  /// Installs the run-wide receive options, fault counters, and the
  /// liveness board (with this mailbox's own rank); called by World before
  /// any rank thread starts.  Unconfigured mailboxes use the default
  /// RunOptions and run without a watchdog.
  void configure(const RunOptions* options, FaultCounters* counters,
                 HealthBoard* health = nullptr, int self_rank = -1);

  /// Observability hook: the owning rank's tracer, which receives instant
  /// events for the defensive paths (retransmit requests, checksum
  /// failures, watchdog verdicts).  All of those run on the owner thread,
  /// matching the tracer's threading contract.  Null disables reporting.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  void deliver(Message msg);

  /// Fault-aware delivery: applies the sender-side injection decision
  /// (withhold, duplicate, delay, corrupt-already-applied) to the entry.
  void deliver(Message msg, const FaultPlan::Injection& injection);

  /// Blocks until a message matching (comm_id, src, tag) is available and
  /// removes it.  src may be kAnySource; tag may be kAnyTag.  Raises
  /// TimeoutError after the configured deadline and ChecksumError if the
  /// matched payload fails verification.
  Message receive(std::uint64_t comm_id, int src, int tag);

 private:
  struct Entry {
    Message msg;
    int delay_polls = 0;   // visible once this reaches 0
    bool withheld = false; // "dropped": needs retransmission to appear
  };
  using TripleKey = std::tuple<std::uint64_t, int, int>;

  std::optional<Message> match_locked(std::uint64_t comm_id, int src,
                                      int tag);
  /// One receive poll: ages delayed entries and (if retries are enabled)
  /// retransmits withheld entries matching the pending request.
  void poll_locked(std::uint64_t comm_id, int src, int tag);
  /// Checksum verification of a matched message.
  void verify(const Message& msg) const;

  const RunOptions* options_ = nullptr;  // null = defaults
  FaultCounters* counters_ = nullptr;
  HealthBoard* health_ = nullptr;  // null = no watchdog
  obs::Tracer* tracer_ = nullptr;  // null = no incident reporting
  int self_rank_ = -1;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Entry> queue_;
  /// Highest sequence number taken per triple (duplicate suppression).
  std::map<TripleKey, std::uint64_t> taken_seq_;
};

}  // namespace ca::comm
