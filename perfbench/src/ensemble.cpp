#include "ensemble.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "service/service.hpp"
#include "util/json.hpp"

namespace pb {
namespace {

using namespace ca;

/// Open-loop arrival rate [jobs/s], fixed in the workload definition: about
/// 42% of what two slots on a 4-rank budget complete back to back (8.1
/// jobs/s on a 4-core Xeon VM).  Higher loads let queueing amplify the
/// machine's speed drift into turnaround spreads beyond any usable bound.
constexpr double kArrivalRate = 3.4;
constexpr int kSlots = 2;
constexpr int kSetupReps = 31;
constexpr int kJobLane = kMainLane + 1;

core::DycoreConfig job_config() {
  core::DycoreConfig c;
  c.nx = 24;
  c.ny = 32;
  c.nz = 8;
  c.M = 2;
  return c;
}

service::ServiceOptions service_options(const std::string& dir,
                                        std::size_t queue,
                                        obs::TraceCollector* program_trace) {
  service::ServiceOptions o;
  o.slots = kSlots;
  o.rank_budget = 4;
  o.queue_capacity = queue;  // the open loop never blocks on submission
  o.checkpoint_dir = dir;
  o.replicate = true;
  o.delta_chain = 4;
  o.health.cadence = 1;
  o.obs.dump_dir = dump_dir();
  if (program_trace != nullptr) {
    o.obs.trace = true;
    o.trace_sink = program_trace;
  }
  return o;
}

service::JobSpec job_spec(const Shape& shape, int steps,
                          const state::InitialOptions& ic) {
  service::JobSpec j;
  j.core = shape.kind == CoreKind::kSerial     ? service::CoreKind::kSerial
           : shape.kind == CoreKind::kOriginal ? service::CoreKind::kOriginal
                                               : service::CoreKind::kCA;
  j.config = shape.cfg;
  j.dims = shape.dims;
  j.ca_options = shape.ca;
  j.steps = steps;
  j.initial = ic;
  j.checkpoint_every = 3;
  return j;
}

}  // namespace

Shape ensemble_probe_shape() {
  Shape s;
  s.kind = CoreKind::kCA;
  s.cfg = job_config();
  s.dims = {1, 2, 1};
  return s;
}

std::vector<JobPlan> ensemble_jobs(std::uint64_t seed, double seconds,
                                   Digest& digest) {
  std::mt19937_64 rng(seed);
  const int n = std::max(8, static_cast<int>(std::lround(kArrivalRate * seconds)));
  // Balanced mix: every block of 4 arrivals holds one job of each kind and
  // every block of 7 one of each step count 6..12, in seeded order.
  std::vector<int> kinds, steps;
  while (static_cast<int>(kinds.size()) < n) {
    std::vector<int> block{0, 1, 2, 3};
    std::shuffle(block.begin(), block.end(), rng);
    kinds.insert(kinds.end(), block.begin(), block.end());
  }
  while (static_cast<int>(steps.size()) < n) {
    std::vector<int> block{6, 7, 8, 9, 10, 11, 12};
    std::shuffle(block.begin(), block.end(), rng);
    steps.insert(steps.end(), block.begin(), block.end());
  }
  // Open loop at a fixed rate: job i is due in its own 1/rate slot, at a
  // seeded point of the slot's middle 80%.
  std::uniform_real_distribution<double> jitter(-0.4, 0.4);

  std::vector<JobPlan> plan;
  for (int i = 0; i < n; ++i) {
    const int kind = kinds[static_cast<std::size_t>(i)];
    const int nsteps = steps[static_cast<std::size_t>(i)];
    Shape shape;
    shape.cfg = job_config();
    switch (kind) {
      case 0:
        shape.kind = CoreKind::kSerial;
        break;
      case 1:
        shape.kind = CoreKind::kOriginal;
        shape.dims = {1, 2, 1};
        break;
      case 2:
        shape.kind = CoreKind::kCA;
        shape.dims = {1, 2, 1};
        break;
      default:
        shape.kind = CoreKind::kCA;
        shape.dims = {1, 4, 1};
        break;
    }
    JobPlan jp;
    jp.due = (i + 0.5 + jitter(rng)) / kArrivalRate;
    const state::InitialOptions ic = seeded_initial(rng());
    jp.spec = job_spec(shape, nsteps, ic);
    jp.spec.name = "job" + std::to_string(i);
    digest.add_value(jp.due);
    digest.add_value(kind);
    digest.add_value(nsteps);
    digest.add_value(ic.wave_amplitude);
    digest.add_value(ic.jet_speed);
    plan.push_back(std::move(jp));
  }
  return plan;
}

EnsembleRun run_ensemble(const std::vector<JobPlan>& plan,
                         const std::string& checkpoint_dir, Trace& trace,
                         obs::TraceCollector* program_trace) {
  EnsembleRun run;
  const std::size_t n = plan.size();
  std::filesystem::create_directories(checkpoint_dir);
  const service::ServiceOptions opts =
      service_options(checkpoint_dir, n + 16, program_trace);
  // Set-up repeats all stay alive until the stream starts, so no timed
  // construction overlaps the teardown of an earlier one.
  std::vector<double> setups;
  std::vector<std::unique_ptr<service::EnsembleService>> services;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = now_s();
    services.push_back(std::make_unique<service::EnsembleService>(opts));
    setups.push_back(now_s() - t0);
  }
  run.setup_s = median(setups);
  std::unique_ptr<service::EnsembleService> svc = std::move(services.back());
  services.clear();

  std::vector<double> due(n, 0.0), done(n, 0.0);
  std::vector<int> ids(n, -1);
  std::vector<std::thread> waiters;
  waiters.reserve(n);
  service::EnsembleService& service = *svc;
  const double start = now_s() + 0.005;
  try {
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = start + plan[i].due;
      const double ahead = due[i] - now_s();
      if (ahead > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
      const double t_submit = now_s();
      {
        auto sp = trace.span(kMainLane, "service.submit");
        ids[i] = service.submit(plan[i].spec, /*block=*/false);
      }
      run.lag.push_back(t_submit - due[i]);
      if (ids[i] < 0) {
        run.error = "submission refused: queue full";
        break;
      }
      waiters.emplace_back([&service, &done, i, id = ids[i]] {
        try {
          service.wait(id);
        } catch (...) {
        }
        done[i] = now_s();
      });
    }
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  for (std::thread& w : waiters) w.join();

  double last = start;
  for (std::size_t i = 0; i < n; ++i) {
    if (ids[i] < 0) continue;
    last = std::max(last, done[i]);
    run.turnaround.push_back(done[i] - due[i]);
    trace.add(kJobLane, "service.job", due[i], done[i]);
  }
  run.window_s = last - start;

  const util::Json report = service.report();
  run.utilization = report.find("service")->find("utilization")->as_double();
  run.max_concurrent_jobs =
      report.find("service")->find("max_concurrent_jobs")->as_double();
  for (const util::Json& e : report.find("jobs")->items()) {
    run.queue_wait.push_back(e.find("queue_wait_seconds")->as_double());
    const double run_s = e.find("run_seconds")->as_double();
    run.run_s.push_back(run_s);
    run.busy_s += run_s / kSlots;
    if (e.find("state")->as_string() != "completed") continue;
    ++run.completed;
    const int id = static_cast<int>(e.find("id")->as_double());
    const double steps_done = e.find("steps_done")->as_double();
    run.step_s.push_back(run_s / steps_done);
    run.sim_seconds +=
        steps_done * plan[static_cast<std::size_t>(id)].spec.config.dt_advect;
  }
  svc.reset();
  return run;
}

Metrics service_layers(const EnsembleRun& run) {
  return {
      {"service.run_s_p50", "s", median(run.run_s)},
      {"service.utilization", "1", run.utilization},
      {"service.max_concurrent_jobs", "count", run.max_concurrent_jobs},
      {"service.generator_lag_s_p90", "s", quantile(run.lag, 0.9)},
      {"service.queue_wait_s_p50", "s", median(run.queue_wait)},
      {"service.queue_wait_s_p90", "s", quantile(run.queue_wait, 0.9)},
      {"service.jobs_per_s", "1/s", run.completed / run.window_s},
  };
}

EnsembleRun service_probe(const Shape& shape,
                          const state::InitialOptions& ic,
                          const std::string& checkpoint_dir, Trace& trace) {
  std::vector<JobPlan> plan(4);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i].spec = job_spec(shape, 3, ic);
    plan[i].spec.name = "probe" + std::to_string(i);
  }
  return run_ensemble(plan, checkpoint_dir, trace, nullptr);
}

}  // namespace pb
