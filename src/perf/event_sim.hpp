// Discrete-event execution of a Schedule under a MachineModel.
//
// Timeline semantics (the "maximum over any execution path" accounting of
// Solomonik et al., the model the paper's Section 5.3 analysis uses):
//   - kCompute     : clock += flops * flop_time
//   - kIsend       : clock += alpha (injection); the message arrives at the
//                    receiver at clock + beta*bytes
//   - kIrecv       : posts a pending receive (free)
//   - kWaitAll     : clock = max(clock, latest pending arrival) plus the
//                    receiver-side overhead per consumed message
//   - kCollective  : all members rendezvous; everyone leaves at
//                    max(entry clocks) + collective_seconds
//
// Per-phase accounting: every clock advancement is charged to the active
// op's phase, and message/byte counters are kept per phase, in the same
// per-rank record (util::PhaseRecord) the functional runtime fills, so
// the schedule can be validated against it phase by phase.
#pragma once

#include <vector>

#include "perf/machine.hpp"
#include "perf/schedule.hpp"
#include "util/timer.hpp"

namespace ca::perf {

struct RankResult {
  double total_seconds = 0.0;
  util::PhaseRecord phases;
};

struct SimResult {
  std::vector<RankResult> ranks;
  /// Latest rank completion time (the quantity the paper's runtime plots
  /// report).
  double makespan = 0.0;

  /// Max across ranks of the per-phase time (0 if the phase never ran).
  double phase_max_seconds(util::Phase phase) const;
  /// Mean across ranks of the per-phase time.
  double phase_avg_seconds(util::Phase phase) const;
  /// Sum across ranks of the phase's record.
  util::PhaseStats phase_total(util::Phase phase) const;
  /// The phases any rank charged, in name order.
  std::vector<util::Phase> phases() const;
};

/// Runs the schedule to completion.  Throws std::runtime_error on deadlock
/// (a rank blocked forever — mismatched sends/receives or collectives).
SimResult simulate(const Schedule& schedule, const MachineModel& machine);

}  // namespace ca::perf
