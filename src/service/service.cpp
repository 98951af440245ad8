#include "service/service.hpp"

#include <stdexcept>

namespace ca::service {
namespace {

util::Json fault_json(const comm::FaultSummary& s) {
  util::Json f = util::Json::object();
  f["injected_delay"] = s.injected_delay;
  f["injected_duplicate"] = s.injected_duplicate;
  f["injected_drop"] = s.injected_drop;
  f["injected_corrupt"] = s.injected_corrupt;
  f["injected_stall"] = s.injected_stall;
  f["injected_kill"] = s.injected_kill;
  f["injected_hang"] = s.injected_hang;
  f["injected_state_corrupt"] = s.injected_state_corrupt;
  f["detected_checksum"] = s.detected_checksum;
  f["detected_timeout"] = s.detected_timeout;
  f["detected_peer_dead"] = s.detected_peer_dead;
  f["detected_numeric"] = s.detected_numeric;
  f["recovered_delay"] = s.recovered_delay;
  f["recovered_duplicate"] = s.recovered_duplicate;
  f["recovered_drop"] = s.recovered_drop;
  return f;
}

}  // namespace

EnsembleService::EnsembleService(const ServiceOptions& options)
    : pool_(options) {}

EnsembleService::~EnsembleService() { pool_.shutdown(); }

int EnsembleService::submit(const JobSpec& spec, bool block) {
  const std::string problem = validate(spec, pool_.options().rank_budget);
  if (!problem.empty())
    throw std::invalid_argument("job '" + spec.name + "': " + problem);
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    job = std::make_shared<Job>(static_cast<int>(jobs_.size()), spec);
    jobs_.push_back(job);
  }
  if (!pool_.submit(job, block)) {
    // Rejected by backpressure/shutdown; tombstone the reserved id slot
    // (ids are indices, and other submitters may have appended since).
    std::lock_guard<std::mutex> lk(jobs_mu_);
    jobs_[static_cast<std::size_t>(job->id)] = nullptr;
    return -1;
  }
  return job->id;
}

std::shared_ptr<Job> EnsembleService::find(int job_id) const {
  std::lock_guard<std::mutex> lk(jobs_mu_);
  if (job_id < 0 || static_cast<std::size_t>(job_id) >= jobs_.size() ||
      jobs_[static_cast<std::size_t>(job_id)] == nullptr)
    throw std::out_of_range("unknown job id " + std::to_string(job_id));
  return jobs_[static_cast<std::size_t>(job_id)];
}

void EnsembleService::wait(int job_id) { pool_.wait(*find(job_id)); }

void EnsembleService::drain() { pool_.drain(); }

JobResult EnsembleService::result(int job_id) {
  return pool_.snapshot(*find(job_id), /*take_state=*/true);
}

JobState EnsembleService::state(int job_id) const {
  return pool_.state(*find(job_id));
}

util::Json EnsembleService::report() {
  const PoolCounters c = pool_.counters();
  std::vector<std::shared_ptr<Job>> jobs;
  {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    for (const auto& j : jobs_)
      if (j != nullptr) jobs.push_back(j);
  }
  std::vector<JobResult> results;
  results.reserve(jobs.size());
  std::size_t completed = 0, failed = 0;
  for (const auto& j : jobs) {
    results.push_back(pool_.snapshot(*j, /*take_state=*/false));
    completed += results.back().state == JobState::kCompleted;
    failed += results.back().state == JobState::kFailed;
  }

  util::Json doc = util::Json::object();
  doc["schema"] = kReportSchema;

  util::Json svc = util::Json::object();
  svc["slots"] = pool_.options().slots;
  svc["rank_budget"] = pool_.options().rank_budget;
  svc["queue_capacity"] = static_cast<double>(pool_.options().queue_capacity);
  svc["wall_seconds"] = c.wall_seconds;
  svc["jobs_submitted"] = static_cast<double>(jobs.size());
  svc["jobs_completed"] = static_cast<double>(completed);
  svc["jobs_failed"] = static_cast<double>(failed);
  svc["max_concurrent_jobs"] = c.max_concurrent_jobs;
  svc["max_ranks_in_flight"] = c.max_ranks_in_flight;
  svc["preemptions"] = static_cast<double>(c.preemptions);
  svc["retries"] = static_cast<double>(c.retries);
  svc["elastic_shrinks"] = static_cast<double>(c.elastic_shrinks);
  svc["elastic_grows"] = static_cast<double>(c.elastic_grows);
  svc["rank_seconds_busy"] = c.rank_seconds_busy;
  svc["utilization"] =
      c.wall_seconds > 0.0
          ? c.rank_seconds_busy / (pool_.options().rank_budget * c.wall_seconds)
          : 0.0;
  doc["service"] = std::move(svc);

  // The health section (new in v2): per-rank quarantine state plus the
  // recovery counters the rank-failure tests assert on.
  util::Json health = util::Json::object();
  util::Json rank_arr = util::Json::array();
  for (const auto& rh : c.ranks) {
    util::Json r = util::Json::object();
    r["id"] = rh.id;
    r["status"] = rh.status;
    r["strikes"] = rh.strikes;
    r["quarantines"] = rh.quarantines;
    rank_arr.push_back(std::move(r));
  }
  health["ranks"] = std::move(rank_arr);
  health["jobs_recovered"] = static_cast<double>(c.jobs_recovered);
  health["quarantines"] = static_cast<double>(c.quarantines);
  health["ranks_retired"] = c.ranks_retired;
  health["degraded_rank_seconds"] = c.degraded_rank_seconds;
  // Replication counters (new in v3): RAM replica traffic and footprint.
  health["replication_enabled"] = pool_.options().replicate;
  health["replica_deposits"] =
      static_cast<double>(pool_.replicas().deposits());
  health["replica_bytes"] =
      static_cast<double>(pool_.replicas().stored_bytes());
  // Numeric health (new in v5): the sentinel's configuration and the
  // rollback counter the blowup-recovery tests assert on.
  health["sentinel_enabled"] = pool_.options().health.enabled();
  health["sentinel_cadence"] = pool_.options().health.cadence;
  health["numeric_retry"] = pool_.options().numeric_retry;
  health["numeric_rollbacks"] = static_cast<double>(c.numeric_rollbacks);
  doc["health"] = std::move(health);

  util::Json arr = util::Json::array();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& j = jobs[i];
    const JobResult& r = results[i];
    util::Json e = util::Json::object();
    e["id"] = r.id;
    e["name"] = r.name;
    e["core"] = to_string(j->spec.core);
    util::Json dims = util::Json::array();
    for (int d : j->spec.dims) dims.push_back(d);
    e["dims"] = std::move(dims);
    e["ranks"] = j->spec.ranks();
    // The decomposition the job actually (last) ran with; differs from
    // dims after a degraded-budget reshape.
    util::Json active = util::Json::array();
    for (int d : r.active_dims) active.push_back(d);
    e["active_dims"] = std::move(active);
    e["steps"] = j->spec.steps;
    e["priority"] = j->spec.priority;
    e["state"] = to_string(r.state);
    e["steps_done"] = r.steps_done;
    e["attempts"] = r.metrics.attempts;
    e["preemptions"] = r.metrics.preemptions;
    // Dispatch-order fairness (new in v4): scheduler decisions that
    // overtook this job while it waited — wall-clock-free, so bounds on
    // it hold on any machine speed.
    e["dispatches_overtaken"] =
        static_cast<double>(r.metrics.dispatches_overtaken);
    e["rank_recoveries"] = r.metrics.rank_recoveries;
    // Numeric health (new in v5): sentinel-tripped attempts rolled back
    // to this job's last healthy checkpoint.
    e["numeric_rollbacks"] = r.metrics.numeric_rollbacks;
    // Restore provenance (new in v3): how resumed attempts got their
    // state back, and how long the restores took.
    e["ram_restores"] = r.metrics.ram_restores;
    e["disk_restores"] = r.metrics.disk_restores;
    e["restore_seconds"] = r.metrics.restore_seconds;
    e["queue_wait_seconds"] = r.metrics.queue_wait_seconds;
    e["run_seconds"] = r.metrics.run_seconds;
    e["backoff_seconds"] = r.metrics.backoff_seconds;
    e["steps_per_second"] = r.metrics.steps_per_second;
    e["deadline_seconds"] = j->spec.deadline_seconds;
    e["deadline_missed"] = r.metrics.deadline_missed;
    util::Json comm = util::Json::object();
    comm["messages"] = r.metrics.messages;
    comm["bytes"] = r.metrics.bytes;
    comm["collective_calls"] = r.metrics.collective_calls;
    e["comm"] = std::move(comm);
    e["faults"] = fault_json(r.faults);
    if (!r.error.empty()) e["error"] = r.error;
    arr.push_back(std::move(e));
  }
  doc["jobs"] = std::move(arr);
  return doc;
}

std::string validate_report(const util::Json& doc) {
  if (!doc.is_object()) return "root is not an object";
  const util::Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kReportSchema)
    return "missing/wrong schema tag";
  const util::Json* svc = doc.find("service");
  if (svc == nullptr || !svc->is_object()) return "missing service object";
  for (const char* key :
       {"slots", "rank_budget", "queue_capacity", "wall_seconds",
        "jobs_submitted", "jobs_completed", "jobs_failed",
        "max_concurrent_jobs", "max_ranks_in_flight", "preemptions",
        "retries", "rank_seconds_busy", "utilization"})
    if (svc->find(key) == nullptr || !svc->find(key)->is_number())
      return std::string("service missing numeric '") + key + "'";
  const util::Json* health = doc.find("health");
  if (health == nullptr || !health->is_object())
    return "missing health object";
  for (const char* key :
       {"jobs_recovered", "quarantines", "ranks_retired",
        "degraded_rank_seconds", "replica_deposits", "replica_bytes",
        "sentinel_cadence", "numeric_retry", "numeric_rollbacks"})
    if (health->find(key) == nullptr || !health->find(key)->is_number())
      return std::string("health missing numeric '") + key + "'";
  const util::Json* ranks = health->find("ranks");
  if (ranks == nullptr || !ranks->is_array())
    return "health missing ranks array";
  for (const auto& r : ranks->items()) {
    if (!r.is_object()) return "health rank entry is not an object";
    if (r.find("id") == nullptr || r.find("status") == nullptr ||
        !r.find("status")->is_string())
      return "health rank entry missing id/status";
    const std::string& st = r.find("status")->as_string();
    if (st != "healthy" && st != "quarantined" && st != "retired")
      return "health rank entry has unknown status '" + st + "'";
  }
  const util::Json* jobs = doc.find("jobs");
  if (jobs == nullptr || !jobs->is_array()) return "missing jobs array";
  for (const auto& e : jobs->items()) {
    if (!e.is_object()) return "job entry is not an object";
    for (const char* key :
         {"id", "name", "core", "state", "steps", "steps_done", "attempts",
          "preemptions", "queue_wait_seconds", "run_seconds",
          "steps_per_second", "rank_recoveries", "active_dims",
          "ram_restores", "disk_restores", "restore_seconds"})
      if (e.find(key) == nullptr)
        return std::string("job missing '") + key + "'";
    for (const char* key : {"dispatches_overtaken", "numeric_rollbacks"})
      if (e.find(key) == nullptr || !e.find(key)->is_number())
        return std::string("job missing numeric '") + key + "'";
    const std::string& state = e.find("state")->as_string();
    if (state != "queued" && state != "running" && state != "preempted" &&
        state != "backoff" && state != "completed" && state != "failed")
      return "job has unknown state '" + state + "'";
    if (state == "failed" && e.find("error") == nullptr)
      return "failed job missing 'error'";
    const util::Json* comm = e.find("comm");
    if (comm == nullptr || !comm->is_object())
      return "job missing comm object";
    const util::Json* faults = e.find("faults");
    if (faults == nullptr || !faults->is_object())
      return "job missing faults object";
  }
  return {};
}

}  // namespace ca::service
