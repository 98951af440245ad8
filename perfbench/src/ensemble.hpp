// Service side of the benchmark: an open-loop stream of seeded jobs
// through service::EnsembleService, timed from each job's due time to its
// terminal state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "dycore.hpp"
#include "obs/trace.hpp"
#include "service/job.hpp"
#include "trace.hpp"

namespace pb {

struct JobPlan {
  ca::service::JobSpec spec;
  double due = 0.0;  ///< seconds after the stream starts
};

/// The service_ensemble stream: open-loop arrivals at a fixed rate for
/// `seconds`, each at a seeded point of its own 1/rate slot, a stratified seeded mix of serial, original {1,2,1} and CA
/// {1,2,1}/{1,4,1} jobs of 6-12 steps on a 24x32x8 mesh (M = 2), each
/// checkpointing every 3 steps.  Folds the generated inputs into digest.
std::vector<JobPlan> ensemble_jobs(std::uint64_t seed, double seconds,
                                   Digest& digest);

/// The job shape the traced service run replays its dycore layers on.
Shape ensemble_probe_shape();

struct EnsembleRun {
  double setup_s = 0.0;  ///< median service construction
  double window_s = 0.0; ///< stream start to the last terminal job
  double busy_s = 0.0;   ///< jobs' summed slot seconds / slots
  std::vector<double> lag;         ///< submit time minus due time
  std::vector<double> turnaround;  ///< due time to terminal state
  std::vector<double> queue_wait;  ///< from the service report
  std::vector<double> run_s;
  std::vector<double> step_s;      ///< run seconds per step done
  double sim_seconds = 0.0;        ///< model time of completed jobs
  int completed = 0;
  double utilization = 0.0;
  double max_concurrent_jobs = 0.0;
  std::string error;
};

/// Runs the plan through a fresh service (slots 2, rank budget 4, delta
/// checkpoints, buddy replication, sentinel at cadence 1).  When `trace` is
/// enabled, every job gets submit and due-to-terminal spans.  When
/// `program_trace` is set, the service's own obs tracing is on and exports
/// to it.
EnsembleRun run_ensemble(const std::vector<JobPlan>& plan,
                         const std::string& checkpoint_dir, Trace& trace,
                         ca::obs::TraceCollector* program_trace);

/// service.* per-layer metrics of a run.
Metrics service_layers(const EnsembleRun& run);

/// A small burst of `shape` jobs through the same service, so dycore
/// workloads also report what the service layer costs around their shape.
EnsembleRun service_probe(const Shape& shape,
                          const ca::state::InitialOptions& ic,
                          const std::string& checkpoint_dir, Trace& trace);

}  // namespace pb
