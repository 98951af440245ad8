// Per-rank handle of the mini message-passing runtime: point-to-point
// messaging (blocking and nonblocking), communicator management, and
// traffic statistics.  One Context exists per logical rank and is only
// touched from that rank's thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/mailbox.hpp"
#include "comm/stats.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace ca::comm {

class World;

/// Handle to an in-flight nonblocking operation.  Sends complete eagerly;
/// receives complete at wait().
class Request {
 public:
  Request() = default;

  bool is_recv() const { return recv_buffer_.data() != nullptr; }

 private:
  friend class Context;
  std::uint64_t comm_id_ = 0;
  int src_ = kAnySource;
  int tag_ = kAnyTag;
  std::span<std::byte> recv_buffer_{};
  bool done_ = true;
};

class Context {
 public:
  Context(World* world, int world_rank);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  int world_rank() const { return world_rank_; }
  int world_size() const;

  /// Communicator containing every rank, in world order.
  const Communicator& world() const { return world_comm_; }

  // --- point-to-point -----------------------------------------------------
  /// Eager buffered send: copies the payload into dst's mailbox; never
  /// blocks on the receiver.
  void send(const Communicator& comm, int dst, int tag,
            std::span<const std::byte> data);
  /// Blocking receive into `data`; the matched payload size must equal
  /// data.size().
  void recv(const Communicator& comm, int src, int tag,
            std::span<std::byte> data);

  Request isend(const Communicator& comm, int dst, int tag,
                std::span<const std::byte> data);
  Request irecv(const Communicator& comm, int src, int tag,
                std::span<std::byte> data);
  void wait(Request& req);

  // Typed convenience overloads.
  template <typename T>
  void send_values(const Communicator& comm, int dst, int tag,
                   std::span<const T> values) {
    send(comm, dst, tag, std::as_bytes(values));
  }
  template <typename T>
  void recv_values(const Communicator& comm, int src, int tag,
                   std::span<T> values) {
    recv(comm, src, tag, std::as_writable_bytes(values));
  }
  template <typename T>
  Request isend_values(const Communicator& comm, int dst, int tag,
                       std::span<const T> values) {
    return isend(comm, dst, tag, std::as_bytes(values));
  }
  template <typename T>
  Request irecv_values(const Communicator& comm, int src, int tag,
                       std::span<T> values) {
    return irecv(comm, src, tag, std::as_writable_bytes(values));
  }

  // --- communicator management --------------------------------------------
  /// Collective over `parent`: all members call with their (color, key);
  /// returns the sub-communicator of members sharing this rank's color,
  /// ordered by (key, parent rank).  color < 0 yields an invalid
  /// communicator (the rank opts out) but the call is still collective.
  Communicator split(const Communicator& parent, int color, int key);

  /// This rank's traffic counters: sends and collective calls go to the
  /// record under the sticky phase (stencil, collective, service, ...).
  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }

  /// This rank's record, read for seconds: every phase span the rank
  /// opens (step, operators, exchange, exchange_wait, collective) charges
  /// its exclusive time here.  The same record stats() counts traffic in.
  util::PhaseTimers& timers() { return stats_.record(); }
  const util::PhaseTimers& timers() const { return stats_.record(); }

  /// This rank's observability tracer: spans for the phase/step timeline,
  /// instants for comm incidents, and the flight-recorder ring dumped on
  /// rank death.  Configured from RunOptions::obs; phase_span() charges
  /// timers(), so the record and the trace share one clock.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// Step boundary hook for the fault-injection layer (cores call this
  /// once per time step): a kStall fault scheduled for (rank, step) puts
  /// this rank to sleep for the injected number of poll intervals, a
  /// kKillRank fault throws RankKilledError (the rank never responds
  /// again), and a kHangRank fault sleeps the configured window without
  /// stamping the heartbeat.  Also stamps this rank's liveness when the
  /// watchdog is enabled.  A fault no-op without an active FaultPlan.
  void notify_step();

 private:
  Mailbox& mailbox_of(int world_rank);

  World* world_ = nullptr;
  int world_rank_ = -1;
  Communicator world_comm_;
  CommStats stats_;
  obs::Tracer tracer_;
  /// Next sequence number per (dst world rank, comm, tag); only used (and
  /// only grows) while a FaultPlan is active.
  std::map<std::tuple<int, std::uint64_t, int>, std::uint64_t> send_seq_;
  std::uint64_t step_count_ = 0;
};

}  // namespace ca::comm
