// Schedule intermediate representation: the per-rank communication and
// computation program of one algorithm variant (original X-Y, original
// Y-Z, communication-avoiding), expressed as explicit ops.  The event
// simulator (event_sim.hpp) executes a Schedule under a MachineModel; the
// schedule builders (core/schedule_builders.hpp) lower the functional
// cores' step plans into it, which tests cross-check via the runtime's
// traffic statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/timer.hpp"

namespace ca::perf {

enum class OpKind : std::uint8_t {
  kCompute,     ///< local work: advances the rank clock by flops*flop_time
  kIsend,       ///< nonblocking send: alpha at sender, arrival after beta*bytes
  kIrecv,       ///< posts a receive (matched FIFO per source channel)
  kWaitAll,     ///< blocks until every posted receive has arrived
  kCollective,  ///< synchronizing group operation with a closed-form cost
};

struct Op {
  OpKind kind = OpKind::kCompute;
  /// kCompute: floating point operations.
  double flops = 0.0;
  /// kIsend: destination rank; kIrecv: source rank.
  int peer = -1;
  /// kIsend: message size; kCollective: per-rank bytes moved (accounting).
  std::size_t bytes = 0;
  /// kCollective: group index into Schedule::groups.
  int group = -1;
  /// kCollective: wall-clock cost once all members have entered [s].
  double collective_seconds = 0.0;
  /// Accounting phase (stencil, collective or compute for the builders).
  util::Phase phase = util::Phase::kCompute;
};

class Schedule {
 public:
  explicit Schedule(int nranks) : programs_(static_cast<std::size_t>(nranks)) {}

  int nranks() const { return static_cast<int>(programs_.size()); }

  void add_compute(int rank, double flops, util::Phase phase);
  void add_isend(int rank, int dst, std::size_t bytes, util::Phase phase);
  void add_irecv(int rank, int src, util::Phase phase);
  void add_waitall(int rank, util::Phase phase);

  /// Registers a group (e.g. a z line); returns its id.
  int add_group(std::vector<int> members);
  /// Adds the collective op for ONE member; every member of the group must
  /// add a matching op (in the same per-group order).
  void add_collective(int rank, int group, double seconds, std::size_t bytes,
                      util::Phase phase);

  const std::vector<Op>& program(int rank) const {
    return programs_[static_cast<std::size_t>(rank)];
  }
  const std::vector<std::vector<int>>& groups() const { return groups_; }

 private:
  std::vector<std::vector<Op>> programs_;
  std::vector<std::vector<int>> groups_;
};

}  // namespace ca::perf
