// Human-readable and machine-readable reporting of simulation results:
// per-phase breakdowns, imbalance statistics, and CSV emission for the
// figure benches and downstream plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "perf/event_sim.hpp"

namespace ca::perf {

struct PhaseSummary {
  std::string phase;
  double max_seconds = 0.0;
  double avg_seconds = 0.0;
  double min_seconds = 0.0;
  /// Imbalance ratio max/avg (1 = perfectly balanced).
  double imbalance = 0.0;
  util::PhaseStats total;  ///< summed over ranks
};

/// Per-phase summary rows (sorted by phase name) of a simulation result.
std::vector<PhaseSummary> summarize(const SimResult& result);

/// Pretty-prints the summary table: phase | max | avg | imb | msgs | MB.
void print_summary(std::ostream& out, const SimResult& result,
                   const std::string& title);

/// Appends one CSV row per phase: label,phase,max_s,avg_s,imbalance,
/// messages,bytes,collective_bytes.  Writes a header if the stream is at
/// position zero.
void append_csv(std::ostream& out, const std::string& label,
                const SimResult& result);

/// The rank whose completion time defines the makespan (critical rank).
int critical_rank(const SimResult& result);

}  // namespace ca::perf
