// perfbench: the repository's benchmark program.  One invocation measures
// one workload for --seconds seconds and prints, as its last stdout line,
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1).  Workloads, metrics and their meaning are
// documented in perfbench/README.md; perfbench/run.py builds and runs this.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --out-dir receives a details file per run (inputs digest, problems, the
// per-step walls or per-job turnarounds, result), any flight-recorder dumps
// and, for traced runs, the Chrome traces of the benchmark's spans and of
// the program's own obs spans.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"
#include "dycore.hpp"
#include "ensemble.hpp"
#include "trace.hpp"

namespace {

using namespace pb;

/// Launch + construct + initialize repeats whose median is setup_s.
constexpr int kSetupReps = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val);
    else if (key == "--out-dir") a.out_dir = val;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1);
}

/// The two dycore workloads (see README: why each was chosen).
bool dycore_shape(const std::string& name, Shape& s) {
  if (name == "ca_yz_1x4x1") {
    s.kind = CoreKind::kCA;
    s.cfg.nx = 120;
    s.cfg.ny = 48;
    s.dims = {1, 4, 1};
  } else if (name == "original_yz_1x2x2") {
    s.kind = CoreKind::kOriginal;
    s.cfg.nx = 128;
    s.cfg.ny = 48;
    s.dims = {1, 2, 2};
  } else {
    return false;
  }
  s.cfg.nz = 8;
  s.cfg.M = 3;
  return true;
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

std::string result_json(const Tally& t, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += t.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", m[i].value);
    out += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m[i].unit + "\"}";
  }
  return out + "}}";
}

double sypd(double sim_seconds, double wall_seconds) {
  return sim_seconds / wall_seconds / 365.0;
}

Metrics dycore_end_to_end(const Shape& shape, const ca::state::InitialOptions& ic,
                          const StepRun& r, double rss) {
  std::vector<double> setups{r.setup_s};
  for (int i = 1; i < kSetupReps; ++i) setups.push_back(time_setup(shape, ic));
  const double p50 = median(r.step_s), p90 = quantile(r.step_s, 0.9);
  // A dycore run is a closed loop of steps: a step's turnaround (due when
  // the previous one returned) is its wall.
  return {
      {"step_s_p50", "s", p50},
      {"step_s_p90", "s", p90},
      {"sypd", "yr/d",
       sypd(static_cast<double>(r.step_s.size()) * shape.cfg.dt_advect,
            r.window_s)},
      {"turnaround_s_p50", "s", p50},
      {"turnaround_s_p90", "s", p90},
      {"setup_s", "s", median(setups)},
      {"peak_rss_mib", "MiB", rss},
  };
}

void tally_steps(const StepRun& r, Tally& t) {
  t.attempted += static_cast<long>(r.step_s.size());
  if (!r.error.empty()) t.check(false, "dycore run failed: " + r.error);
  t.check(r.health.empty(), "final state failed the sentinel: " + r.health);
}

void tally_jobs(const EnsembleRun& r, std::size_t submitted, Tally& t) {
  t.attempted += static_cast<long>(submitted);
  t.failed += static_cast<long>(submitted) - r.completed;
  if (r.completed != static_cast<int>(submitted))
    t.problems.push_back(std::to_string(submitted - r.completed) +
                         " job(s) did not complete");
  if (!r.error.empty()) t.check(false, "service run: " + r.error);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    if (!parse(argc, argv, a)) throw std::invalid_argument("bad arguments");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  Shape shape;
  const bool dycore = dycore_shape(a.workload, shape);
  if (!dycore && a.workload != "service_ensemble") {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  namespace fs = std::filesystem;
  const std::string tag =
      a.workload + "-seed" + std::to_string(a.seed) + "-trace" + std::to_string(a.trace);
  const std::string scratch =
      (fs::path(a.out_dir) / ("scratch-" + tag + "-" + std::to_string(::getpid())))
          .string();
  fs::create_directories(scratch);
  set_dump_dir(a.out_dir);

  Trace trace(a.trace == 1);
  ca::obs::TraceCollector program_trace;
  Tally tally;
  Metrics metrics;
  Digest inputs;
  std::vector<double> samples;  // step walls, or job turnarounds

  if (dycore) {
    const ca::state::InitialOptions ic = seeded_initial(a.seed);
    StepOptions so;
    so.seconds = a.seconds;
    if (a.trace == 1) {
      so.trace = &trace;
      so.program_trace = &program_trace;
      so.probe = true;
      so.scratch_dir = scratch;
    }
    const StepRun run = run_steps(shape, ic, so);
    tally_steps(run, tally);
    check_schedule(run, tally);
    inputs.add_value(run.input_digest);
    samples = run.step_s;
    if (a.trace == 0) {
      metrics = dycore_end_to_end(shape, ic, run, peak_rss_mib());
    } else {
      metrics = dycore_layers(shape, ic, run, trace);
      const EnsembleRun probe = service_probe(shape, ic, scratch + "/probe", trace);
      tally_jobs(probe, 4, tally);
      for (Metric& m : service_layers(probe)) metrics.push_back(m);
      metrics.push_back({"obs.trace_overhead_fraction", "1",
                         median(run.steps_where(true)) /
                             median(run.steps_where(false)) - 1.0});
    }
    check_twins(shape, ic, tally);
  } else {
    const std::vector<JobPlan> plan = ensemble_jobs(a.seed, a.seconds, inputs);
    if (a.trace == 0) {
      const EnsembleRun run = run_ensemble(plan, scratch + "/service", trace, nullptr);
      tally_jobs(run, plan.size(), tally);
      samples = run.turnaround;
      // sypd over the slots' busy time: the stream's wall is set by the
      // arrival schedule, not by how fast jobs run.
      metrics = {
          {"step_s_p50", "s", median(run.step_s)},
          {"step_s_p90", "s", quantile(run.step_s, 0.9)},
          {"sypd", "yr/d", sypd(run.sim_seconds, run.busy_s)},
          {"turnaround_s_p50", "s", median(run.turnaround)},
          {"turnaround_s_p90", "s", quantile(run.turnaround, 0.9)},
          {"setup_s", "s", run.setup_s},
          {"peak_rss_mib", "MiB", peak_rss_mib()},
      };
    } else {
      // The same stream twice: untraced, then with the benchmark's spans and
      // the program's own obs tracing exported.  Their turnaround p50s give
      // the tracing overhead; the per-layer numbers come from the second.
      Trace off(false);
      const EnsembleRun plain = run_ensemble(plan, scratch + "/plain", off, nullptr);
      tally_jobs(plain, plan.size(), tally);
      const EnsembleRun run =
          run_ensemble(plan, scratch + "/service", trace, &program_trace);
      tally_jobs(run, plan.size(), tally);
      samples = run.turnaround;
      // The dycore layers are replayed on one job shape of the mix.
      const Shape probe_shape = ensemble_probe_shape();
      const ca::state::InitialOptions ic = seeded_initial(a.seed);
      StepOptions so;
      so.seconds = 1.0;
      so.min_steps = 20;
      so.trace = &trace;
      so.probe = true;
      so.scratch_dir = scratch;
      const StepRun probe = run_steps(probe_shape, ic, so);
      tally_steps(probe, tally);
      check_schedule(probe, tally);
      metrics = dycore_layers(probe_shape, ic, probe, trace);
      for (Metric& m : service_layers(run)) metrics.push_back(m);
      metrics.push_back({"obs.trace_overhead_fraction", "1",
                         median(run.turnaround) / median(plain.turnaround) - 1.0});
    }
  }
  fs::remove_all(scratch);

  for (Metric& m : metrics) {
    if (std::isfinite(m.value)) continue;
    tally.check(false, "metric " + m.name + " is not finite");
    m.value = 0.0;
  }

  std::string trace_path, obs_trace_path;
  if (trace.enabled()) {
    trace_path = (fs::path(a.out_dir) / (tag + ".trace.json")).string();
    if (!trace.write_chrome(trace_path)) tally.check(false, "cannot write " + trace_path);
    obs_trace_path = (fs::path(a.out_dir) / (tag + ".obs.trace.json")).string();
    tally.check(program_trace.event_count() > 0, "the program recorded no obs spans");
    if (!program_trace.write(obs_trace_path))
      tally.check(false, "cannot write " + obs_trace_path);
  }
  const std::string result = result_json(tally, metrics);
  {
    const std::string path = (fs::path(a.out_dir) / (tag + ".json")).string();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
                      "\"trace\": %d, \"input_digest\": \"%016llx\", "
                      "\"trace_file\": \"%s\", \"obs_trace_file\": \"%s\", "
                      "\"problems\": [",
                   a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                   a.seconds, a.trace, static_cast<unsigned long long>(inputs.value()),
                   escape(trace_path).c_str(), escape(obs_trace_path).c_str());
      for (std::size_t i = 0; i < tally.problems.size(); ++i)
        std::fprintf(f, "%s\"%s\"", i ? ", " : "", escape(tally.problems[i]).c_str());
      std::fprintf(f, "], \"samples_s\": [");
      for (std::size_t i = 0; i < samples.size(); ++i)
        std::fprintf(f, "%s%.9g", i ? ", " : "", samples[i]);
      std::fprintf(f, "], \"result\": %s}\n", result.c_str());
      std::fclose(f);
    }
  }
  for (const std::string& p : tally.problems) std::fprintf(stderr, "FAIL: %s\n", p.c_str());
  std::printf("%s\n", result.c_str());
  return 0;
}
