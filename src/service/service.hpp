// EnsembleService: the front door of the multi-run scheduler.  Callers
// submit JobSpecs (validated here), the WorkerPool multiplexes them over
// the shared rank budget, and the service keeps the full job ledger it
// exports as a versioned JSON report ("ca-agcm/service-report/v6") with
// per-job metrics (queue wait, run seconds, steps/sec, comm traffic,
// retries, preemptions, rank recoveries, fault summary), service-level
// utilization, and a `health` section covering per-rank quarantine state
// and the capacity lost to faults.  The `service` and `health` sections
// come from one WorkerPool::counters() snapshot.  Only the current
// revision validates.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/job.hpp"
#include "service/worker_pool.hpp"
#include "util/json.hpp"

namespace ca::service {

inline constexpr const char* kReportSchema = "ca-agcm/service-report/v6";

using ServiceOptions = PoolOptions;

class EnsembleService {
 public:
  explicit EnsembleService(const ServiceOptions& options);
  ~EnsembleService();  // drains and stops the pool

  const ServiceOptions& options() const { return pool_.options(); }

  /// Validates and enqueues; returns the job id (>= 0).  Throws
  /// std::invalid_argument with the validation message for a bad spec.
  /// Blocks while the queue is full when `block` (backpressure);
  /// otherwise returns -1 immediately on a full queue.
  int submit(const JobSpec& spec, bool block = true);

  /// Blocks until the job is terminal (kCompleted/kFailed).
  void wait(int job_id);
  /// Blocks until every submitted job is terminal.
  void drain();

  /// Terminal (or in-flight) snapshot of one job.  The final state is
  /// MOVED out on the first call for a completed job (it can be large);
  /// later calls return the metrics with an empty state.
  JobResult result(int job_id);
  /// Current lifecycle state (callable any time).
  JobState state(int job_id) const;

  /// Builds the service report over every job submitted so far.
  util::Json report();

  /// One consistent snapshot of the pool counters, for tests/benches.
  PoolCounters counters() const { return pool_.counters(); }

 private:
  std::shared_ptr<Job> find(int job_id) const;

  WorkerPool pool_;
  mutable std::mutex jobs_mu_;
  std::vector<std::shared_ptr<Job>> jobs_;  // index == job id
};

/// Schema check of a service report; returns a description of the first
/// problem, or empty when the document conforms to the current (v6)
/// schema; any other schema tag is rejected.
std::string validate_report(const util::Json& doc);

}  // namespace ca::service
