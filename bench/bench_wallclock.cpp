// Real-time (wall-clock) benchmark of the functional cores: steps the
// serial, original, and communication-avoiding dynamical cores on a small
// mesh across 1xN / Nx1 / NxM process grids, with the fault-injection
// layer off and on, then emits BENCH_wallclock.json.
//
// Unlike the figure benches this measures THIS machine, not the event
// simulator: per-phase seconds come from each rank's util::PhaseTimers,
// message/byte counts from comm::CommStats, and buffer-pool behavior from
// CommStats::pool().  Each case reports its slowest rank's split of the
// measured wall clock into exchange, exchange_wait, collective and compute
// (that rank's remainder, which must be positive).  The faulted run is
// checked bitwise against its fault-free twin, and the steady-state window
// (after warm-up) must perform zero pool-growing acquires.
//
// A final section measures checkpoint bytes per cadence: delta sidecar
// chains (util::CheckpointSession) against full-every-cadence writes, on
// a steady state (kRestIsothermal, where the chain must cut bytes >= 3x)
// and an active planetary wave (the degenerate end: every block dirty).
// Both modes must reconstruct the writer's final state bitwise from disk.
//
// Configuration (key=value args, or CA_AGCM_* env — see README):
//   nx, ny, nz, m   mesh and iteration count     (default 32x32x8, M=2;
//                   ny/py must stay >= 3M + 1 for the CA core's halos)
//   steps           measured steps               (default 2)
//   warmup          warm-up steps before measure (default 2)
//   ranks           logical ranks of the parallel runs (default 4)
//   out             output path                  (default BENCH_wallclock.json)
// The emitted file is re-parsed and schema-checked before exit, so a
// nonzero status means the bench (or its JSON) is broken — this is what
// the bench-smoke ctest target runs.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "obs/trace.hpp"
#include "core/ca_core.hpp"
#include "core/diagnostics.hpp"
#include "core/exchange.hpp"
#include "core/health.hpp"
#include "core/original_core.hpp"
#include "core/serial_core.hpp"
#include "util/checkpoint.hpp"
#include "util/config.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace ca;

constexpr const char* kSchema = "ca-agcm/bench-wallclock/v1";

enum class CoreKind { kSerial, kOriginal, kCA };

struct BenchCase {
  std::string label;
  CoreKind core = CoreKind::kSerial;
  core::DecompScheme scheme = core::DecompScheme::kYZ;
  std::array<int, 3> dims{1, 1, 1};
  bool faults = false;
};

struct RunResult {
  // The slowest rank's measured steps: its wall clock, and that rank's
  // pack/unpack, blocked-on-message and collective seconds; compute is the
  // rest of its wall clock.
  double wall = 0.0;
  double exchange = 0.0;
  double exchange_wait = 0.0;
  double collective = 0.0;
  double compute = 0.0;
  std::uint64_t messages = 0, bytes = 0, collectives = 0;  // summed
  std::uint64_t pool_allocations = 0, pool_reuses = 0;     // summed
  std::uint64_t steady_allocations = 0;  // pool growth after warm-up
  std::uint64_t exchange_messages = 0;   // one begin()'s sends, summed
  state::State global;  // gathered final state (parallel runs)
};

RunResult run_case(const core::DycoreConfig& cfg, const BenchCase& bc,
                   int warmup, int steps, comm::FaultPlan* plan) {
  RunResult res;
  state::InitialOptions ic;
  ic.kind = state::InitialCondition::kPlanetaryWave;

  if (bc.core == CoreKind::kSerial) {
    core::SerialCore core(cfg);
    auto xi = core.make_state();
    core.initialize(xi, ic);
    core.run(xi, warmup);
    util::Timer timer;
    core.run(xi, steps);
    res.wall = timer.seconds();
    res.compute = res.wall;
    res.global = std::move(xi);
    return res;
  }

  const int p = bc.dims[0] * bc.dims[1] * bc.dims[2];
  comm::RunOptions opts;
  opts.faults = plan;
  std::mutex mu;
  comm::Runtime::run(p, opts, [&](comm::Context& ctx) {
    auto drive = [&](auto& core) {
      auto xi = core.make_state();
      core.initialize(xi, ic);
      core.run(xi, warmup);
      // Steady-state window: pool growth beyond this point is a
      // regression (capacities converged during warm-up).
      const std::uint64_t allocs_after_warmup =
          ctx.stats().pool().allocations;
      const util::PhaseTimers& timers = ctx.timers();
      const double exchange0 = timers.total("exchange");
      const double exchange_wait0 = timers.total("exchange_wait");
      const double collective0 = timers.total("collective");
      util::Timer timer;
      core.run(xi, steps);
      const double wall = timer.seconds();
      const double exchange = timers.total("exchange") - exchange0;
      const double exchange_wait =
          timers.total("exchange_wait") - exchange_wait0;
      const double collective = timers.total("collective") - collective0;
      state::State global =
          core::gather_global(core.op_context(), ctx, core.topology(), xi);
      const auto totals = ctx.stats().grand_totals();
      const auto& pool = ctx.stats().pool();
      std::lock_guard<std::mutex> lock(mu);
      if (wall > res.wall) {
        res.wall = wall;
        res.exchange = exchange;
        res.exchange_wait = exchange_wait;
        res.collective = collective;
        res.compute = wall - exchange - exchange_wait - collective;
      }
      res.messages += totals.p2p_messages;
      res.bytes += totals.p2p_bytes;
      res.collectives += totals.collective_calls;
      res.pool_allocations += pool.allocations;
      res.pool_reuses += pool.reuses;
      res.steady_allocations += pool.allocations - allocs_after_warmup;
      res.exchange_messages += core.exchanger().last_message_count();
      if (ctx.world_rank() == 0) res.global = std::move(global);
    };
    if (bc.core == CoreKind::kOriginal) {
      core::OriginalCore core(cfg, ctx, bc.scheme, bc.dims);
      drive(core);
    } else {
      core::CACore core(cfg, ctx, bc.dims);
      drive(core);
    }
  });
  return res;
}

const char* core_name(CoreKind k) {
  switch (k) {
    case CoreKind::kSerial:
      return "serial";
    case CoreKind::kOriginal:
      return "original";
    default:
      return "ca";
  }
}

const char* scheme_name(const BenchCase& bc) {
  if (bc.core == CoreKind::kSerial) return "serial";
  if (bc.core == CoreKind::kCA) return "yz";
  switch (bc.scheme) {
    case core::DecompScheme::kXY:
      return "xy";
    case core::DecompScheme::kYZ:
      return "yz";
    default:
      return "3d";
  }
}

/// Schema check of an emitted document; returns a description of the
/// first problem, or empty on success.
std::string validate(const util::Json& doc) {
  if (!doc.is_object()) return "root is not an object";
  const util::Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema)
    return "missing/wrong schema tag";
  const util::Json* configs = doc.find("configs");
  if (configs == nullptr || !configs->is_array() || configs->size() == 0)
    return "missing configs array";
  for (const auto& c : configs->items()) {
    for (const char* key : {"label", "core", "scheme", "wall_seconds"})
      if (c.find(key) == nullptr)
        return std::string("config missing '") + key + "'";
    const util::Json* phases = c.find("phases");
    if (phases == nullptr || !phases->is_object())
      return "config missing phases object";
    for (const char* key :
         {"exchange", "exchange_wait", "collective", "compute"})
      if (phases->find(key) == nullptr)
        return std::string("phases missing '") + key + "'";
  }
  const util::Json* ckpt = doc.find("checkpoint");
  if (ckpt == nullptr || !ckpt->is_array() || ckpt->size() == 0)
    return "missing checkpoint array";
  for (const auto& c : ckpt->items())
    for (const char* key :
         {"label", "chain_cap", "cadences", "bytes_written",
          "full_equivalent_bytes", "bytes_ratio_full_over_actual",
          "bitwise_resume"})
      if (c.find(key) == nullptr)
        return std::string("checkpoint entry missing '") + key + "'";
  const util::Json* obs = doc.find("obs");
  if (obs == nullptr || !obs->is_object()) return "missing obs object";
  for (const char* key :
       {"disabled_span_seconds", "spans_per_step", "overhead_fraction"})
    if (obs->find(key) == nullptr)
      return std::string("obs missing '") + key + "'";
  const util::Json* health = doc.find("health");
  if (health == nullptr || !health->is_object())
    return "missing health object";
  for (const char* key :
       {"check_seconds", "reference_step_seconds", "overhead_fraction"})
    if (health->find(key) == nullptr)
      return std::string("health missing '") + key + "'";
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  util::Config cfg_in = util::Config::from_args(argc, argv);
  core::DycoreConfig cfg;
  cfg.nx = cfg_in.get_int("nx", 32);
  cfg.ny = cfg_in.get_int("ny", 32);
  cfg.nz = cfg_in.get_int("nz", 8);
  cfg.M = cfg_in.get_int("m", 2);
  // Ordered z reduction keeps the faulted/fault-free comparison bitwise.
  cfg.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  const int steps = cfg_in.get_int("steps", 2);
  // Two warm-up steps: the CA core's first step exchanges a smaller item
  // set (no previous state yet), so pool capacities converge at step 2.
  const int warmup = cfg_in.get_int("warmup", 2);
  const int ranks = cfg_in.get_int("ranks", 4);
  const std::string out_path =
      cfg_in.get_string("out", "BENCH_wallclock.json");

  if (ranks < 2 || ranks % 2 != 0) {
    std::fprintf(stderr, "ranks must be even and >= 2 (got %d)\n", ranks);
    return 1;
  }

  // 1xN, Nx1, and NxM grids (the CA core requires px == 1, so the Nx1
  // x-decomposition runs on the original core).  Labels carry the full
  // px x py x pz.
  auto dims_tag = [](std::array<int, 3> d) {
    return std::to_string(d[0]) + "x" + std::to_string(d[1]) + "x" +
           std::to_string(d[2]);
  };
  const std::array<int, 3> yz1{1, ranks, 1};
  const std::array<int, 3> xy{ranks, 1, 1};
  const std::array<int, 3> yz2{1, ranks / 2, 2};
  std::vector<BenchCase> cases;
  cases.push_back({"serial", CoreKind::kSerial});
  cases.push_back({"original_yz_" + dims_tag(yz1), CoreKind::kOriginal,
                   core::DecompScheme::kYZ, yz1});
  cases.push_back({"original_xy_" + dims_tag(xy), CoreKind::kOriginal,
                   core::DecompScheme::kXY, xy});
  cases.push_back({"original_yz_" + dims_tag(yz2), CoreKind::kOriginal,
                   core::DecompScheme::kYZ, yz2});
  cases.push_back({"ca_yz_" + dims_tag(yz1), CoreKind::kCA,
                   core::DecompScheme::kYZ, yz1});
  // Fault-layer overhead: recoverable delay + duplicate injection on the
  // CA core (recovery must preserve the answer bitwise).
  cases.push_back({"ca_yz_" + dims_tag(yz1) + "_faults", CoreKind::kCA,
                   core::DecompScheme::kYZ, yz1, /*faults=*/true});

  std::printf("wall-clock bench: %dx%dx%d, M=%d, %d+%d steps, %d ranks\n\n",
              cfg.nx, cfg.ny, cfg.nz, cfg.M, warmup, steps, ranks);
  std::printf("%-24s %9s %9s %9s %9s %9s %9s %7s\n", "config", "wall[ms]",
              "exch[ms]", "wait[ms]", "coll[ms]", "comp[ms]", "msgs",
              "pool+");

  util::Json doc = util::Json::object();
  doc["schema"] = kSchema;
  util::Json mesh = util::Json::object();
  mesh["nx"] = cfg.nx;
  mesh["ny"] = cfg.ny;
  mesh["nz"] = cfg.nz;
  doc["mesh"] = std::move(mesh);
  doc["M"] = cfg.M;
  doc["steps"] = steps;
  doc["warmup"] = warmup;
  doc["ranks"] = ranks;
  util::Json configs = util::Json::array();

  std::vector<RunResult> results(cases.size());
  bool ok = true;

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const BenchCase& bc = cases[i];
    comm::FaultPlan plan(/*seed=*/42);
    if (bc.faults) {
      comm::FaultRule delay;
      delay.kind = comm::FaultKind::kDelay;
      delay.probability = 0.05;
      delay.param = 2;
      plan.add_rule(delay);
      comm::FaultRule dup;
      dup.kind = comm::FaultKind::kDuplicate;
      dup.probability = 0.05;
      plan.add_rule(dup);
    }
    results[i] =
        run_case(cfg, bc, warmup, steps, bc.faults ? &plan : nullptr);
    RunResult& r = results[i];

    // A faulted run must land bitwise on the fault-free run of its grid.
    double diff_vs_fault_free = -1.0;
    if (bc.faults) {
      for (std::size_t j = 0; j < i; ++j) {
        if (cases[j].faults || cases[j].core != bc.core ||
            cases[j].dims != bc.dims)
          continue;
        diff_vs_fault_free = state::State::max_abs_diff(
            r.global, results[j].global, results[j].global.interior());
        if (diff_vs_fault_free != 0.0) {
          std::fprintf(stderr,
                       "FAIL: %s differs from %s (max |diff| = %g)\n",
                       bc.label.c_str(), cases[j].label.c_str(),
                       diff_vs_fault_free);
          ok = false;
        }
        break;
      }
    }
    // Per-rank phases are disjoint windows inside that rank's measured
    // steps, so a remainder <= 0 means the accounting itself is broken.
    if (r.compute <= 0.0) {
      std::fprintf(stderr, "FAIL: %s compute seconds %g <= 0\n",
                   bc.label.c_str(), r.compute);
      ok = false;
    }

    std::printf("%-24s %9.2f %9.2f %9.2f %9.2f %9.2f %9llu %7llu\n",
                bc.label.c_str(), 1e3 * r.wall, 1e3 * r.exchange,
                1e3 * r.exchange_wait, 1e3 * r.collective, 1e3 * r.compute,
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.steady_allocations));

    util::Json entry = util::Json::object();
    entry["label"] = bc.label;
    entry["core"] = core_name(bc.core);
    entry["scheme"] = scheme_name(bc);
    util::Json dims = util::Json::array();
    for (int d : bc.dims) dims.push_back(d);
    entry["dims"] = std::move(dims);
    entry["faults"] = bc.faults;
    entry["wall_seconds"] = r.wall;
    entry["per_step_seconds"] = r.wall / steps;
    util::Json phases = util::Json::object();
    phases["exchange"] = r.exchange;
    phases["exchange_wait"] = r.exchange_wait;
    phases["collective"] = r.collective;
    phases["compute"] = r.compute;
    entry["phases"] = std::move(phases);
    util::Json comm = util::Json::object();
    comm["messages"] = r.messages;
    comm["bytes"] = r.bytes;
    comm["collective_calls"] = r.collectives;
    comm["exchange_messages_last_round"] = r.exchange_messages;
    entry["comm"] = std::move(comm);
    util::Json pool = util::Json::object();
    pool["allocations"] = r.pool_allocations;
    pool["reuses"] = r.pool_reuses;
    pool["steady_state_allocations"] = r.steady_allocations;
    entry["pool"] = std::move(pool);
    if (diff_vs_fault_free >= 0.0) {
      entry["max_abs_diff_vs_fault_free"] = diff_vs_fault_free;
      entry["bitwise_identical"] = diff_vs_fault_free == 0.0;
    }
    configs.push_back(std::move(entry));
  }
  doc["configs"] = std::move(configs);

  // The steady-state window must not grow any pool.
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (cases[i].core == CoreKind::kSerial || cases[i].faults) continue;
    if (results[i].steady_allocations != 0) {
      std::fprintf(stderr,
                   "FAIL: %s grew exchange pools after warm-up (%llu)\n",
                   cases[i].label.c_str(),
                   static_cast<unsigned long long>(
                       results[i].steady_allocations));
      ok = false;
    }
  }

  // Checkpoint bytes per cadence: delta sidecar chains against
  // full-every-cadence writes, on the serial core so each case is one
  // deterministic file.  kRestIsothermal is an exact rest state the
  // dycore preserves, so almost no block goes dirty between cadences —
  // the chain must cut checkpoint bytes by at least 3x there.  The
  // planetary wave is the degenerate end (every block moves every step,
  // deltas carry the whole image plus index overhead) and is reported
  // for parity, not gated.  Either way the reconstructed tip must be
  // bitwise identical to the writer's state AND to the full-write
  // twin's, or the byte savings are meaningless.
  {
    namespace fs = std::filesystem;
    const std::string ckpt_dir =
        (fs::temp_directory_path() /
         ("bench_wallclock_ckpt." + std::to_string(::getpid())))
            .string();
    fs::create_directories(ckpt_dir);
    const int cadences = 8;
    struct CkptCase {
      const char* label;
      state::InitialCondition ic;
      int chain_cap;
    };
    const CkptCase ckpt_cases[] = {
        {"steady_full", state::InitialCondition::kRestIsothermal, 0},
        {"steady_delta", state::InitialCondition::kRestIsothermal, 8},
        {"wave_full", state::InitialCondition::kPlanetaryWave, 0},
        {"wave_delta", state::InitialCondition::kPlanetaryWave, 8},
    };
    std::printf("\n%-16s %11s %11s %7s %5s %6s %8s\n", "checkpoint",
                "bytes", "full-eq", "ratio", "full", "delta", "bitwise");
    util::Json ckpts = util::Json::array();
    state::State full_tip;  // the preceding *_full twin's reconstructed tip
    for (const CkptCase& cc : ckpt_cases) {
      core::SerialCore core(cfg);
      auto xi = core.make_state();
      state::InitialOptions ic;
      ic.kind = cc.ic;
      core.initialize(xi, ic);
      core.run(xi, warmup);
      const std::string path =
          ckpt_dir + "/" + std::string(cc.label) + ".ckpt";
      util::CheckpointSession session(
          path, {.chain_cap = cc.chain_cap, .block_bytes = 4096});
      for (int cad = 1; cad <= cadences; ++cad) {
        core.run(xi, 1);
        session.write(core.mesh(), core.decomp(), xi, warmup + cad,
                      120.0 * (warmup + cad));
      }
      const util::CheckpointWriteStats& st = session.stats();

      // Resume gate: the chain (or plain file) must rebuild the exact
      // bytes the writer last held.
      state::State r = core.make_state();
      const auto tip =
          util::read_checkpoint_chain(path, core.mesh(), core.decomp(), r);
      const double diff = state::State::max_abs_diff(xi, r, xi.interior());
      if (diff != 0.0 || tip.header.step != warmup + cadences) {
        std::fprintf(stderr,
                     "FAIL: %s resume not bitwise (step %lld, |diff| %g)\n",
                     cc.label, static_cast<long long>(tip.header.step),
                     diff);
        ok = false;
      }
      if (cc.chain_cap == 0) {
        if (st.delta_writes != 0) {
          std::fprintf(stderr, "FAIL: %s wrote deltas with the chain off\n",
                       cc.label);
          ok = false;
        }
        full_tip = std::move(r);
      } else {
        // Delta mode is never worse than full mode: a cadence whose
        // delta would cost >= the full file writes a fresh base instead,
        // so the active case degenerates to full writes (delta_writes
        // may be 0) but can never overshoot the full-equivalent bytes.
        if (st.bytes_written > st.full_equivalent_bytes) {
          std::fprintf(stderr,
                       "FAIL: %s wrote more bytes than full mode "
                       "(%llu vs %llu)\n",
                       cc.label,
                       static_cast<unsigned long long>(st.bytes_written),
                       static_cast<unsigned long long>(
                           st.full_equivalent_bytes));
          ok = false;
        }
        // Same core, same steps: the delta chain must land on the same
        // bytes the full-every-cadence twin put on disk.
        const double dvf =
            state::State::max_abs_diff(full_tip, r, full_tip.interior());
        if (dvf != 0.0) {
          std::fprintf(stderr,
                       "FAIL: %s diverges from its full-write twin "
                       "(max |diff| = %g)\n",
                       cc.label, dvf);
          ok = false;
        }
      }
      const double ratio = static_cast<double>(st.full_equivalent_bytes) /
                           static_cast<double>(st.bytes_written);
      if (std::string(cc.label) == "steady_delta" && ratio < 3.0) {
        std::fprintf(stderr,
                     "FAIL: steady-state delta chain saved only %.2fx "
                     "(>= 3x required)\n",
                     ratio);
        ok = false;
      }
      std::printf("%-16s %11llu %11llu %6.1fx %5llu %6llu %8s\n", cc.label,
                  static_cast<unsigned long long>(st.bytes_written),
                  static_cast<unsigned long long>(st.full_equivalent_bytes),
                  ratio, static_cast<unsigned long long>(st.full_writes),
                  static_cast<unsigned long long>(st.delta_writes),
                  diff == 0.0 ? "yes" : "NO");

      util::Json e = util::Json::object();
      e["label"] = cc.label;
      e["initial"] = cc.ic == state::InitialCondition::kRestIsothermal
                         ? "rest_isothermal"
                         : "planetary_wave";
      e["chain_cap"] = cc.chain_cap;
      e["cadences"] = cadences;
      e["block_bytes"] = 4096;
      e["bytes_written"] = st.bytes_written;
      e["full_equivalent_bytes"] = st.full_equivalent_bytes;
      e["bytes_ratio_full_over_actual"] = ratio;
      e["full_writes"] = st.full_writes;
      e["delta_writes"] = st.delta_writes;
      e["bitwise_resume"] = diff == 0.0;
      ckpts.push_back(std::move(e));
    }
    doc["checkpoint"] = std::move(ckpts);
    fs::remove_all(ckpt_dir);
  }

  // Observability overhead gate: the tracing hooks stay in the build even
  // with obs.trace off, so their residual cost — one branch per span —
  // must be invisible next to a dynamics step.  Measure (a) the micro
  // cost of a disabled span and (b) how many spans one step of the 1xN
  // original core actually opens (counted on a traced twin run), and
  // require (a) x (b) < 1% of that case's tracing-off per-step wall.
  {
    obs::TraceOptions off_opts;
    off_opts.trace = false;
    off_opts.dump_on_failure = false;
    obs::Tracer off_tracer;
    off_tracer.configure(off_opts, /*tid=*/0);
    constexpr int kSpanIters = 1 << 21;
    util::Timer span_timer;
    for (int i = 0; i < kSpanIters; ++i) {
      obs::Span s = off_tracer.span("noop", "bench");
    }
    const double disabled_span_seconds = span_timer.seconds() / kSpanIters;

    // Traced twin: same mesh, same step count, trace on with a ring big
    // enough that nothing drops; the busiest rank's recorded-event count
    // bounds the spans any one critical path opens per step.
    obs::TraceCollector collector;
    comm::RunOptions topts;
    topts.obs.trace = true;
    topts.obs.dump_on_failure = false;
    topts.obs.ring_events = 1 << 16;
    topts.trace_sink = &collector;
    std::uint64_t max_rank_events = 0;
    std::mutex obs_mu;
    comm::Runtime::run(ranks, topts, [&](comm::Context& ctx) {
      core::OriginalCore core(cfg, ctx, core::DecompScheme::kYZ,
                              {1, ranks, 1});
      auto xi = core.make_state();
      state::InitialOptions ic;
      ic.kind = state::InitialCondition::kPlanetaryWave;
      core.initialize(xi, ic);
      core.run(xi, steps);
      std::lock_guard<std::mutex> lock(obs_mu);
      max_rank_events =
          std::max<std::uint64_t>(max_rank_events, ctx.tracer().recorded());
    });
    const double spans_per_step =
        static_cast<double>(max_rank_events) / steps;

    // Tracing-off reference: the matching case measured above.
    const std::string ref_label =
        "original_yz_" + dims_tag({1, ranks, 1});
    double ref_step_seconds = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i)
      if (cases[i].label == ref_label)
        ref_step_seconds = results[i].wall / steps;
    const double overhead_seconds = disabled_span_seconds * spans_per_step;
    const double overhead_fraction =
        ref_step_seconds > 0.0 ? overhead_seconds / ref_step_seconds : 0.0;
    std::printf(
        "\nobs overhead: %.1f ns/disabled span x %.0f spans/step = "
        "%.3f us/step (%.4f%% of %s's %.2f ms step)\n",
        1e9 * disabled_span_seconds, spans_per_step, 1e6 * overhead_seconds,
        1e2 * overhead_fraction, ref_label.c_str(), 1e3 * ref_step_seconds);
    if (ref_step_seconds <= 0.0) {
      std::fprintf(stderr, "FAIL: obs gate found no tracing-off twin %s\n",
                   ref_label.c_str());
      ok = false;
    } else if (overhead_fraction >= 0.01) {
      std::fprintf(stderr,
                   "FAIL: disabled-tracing overhead %.4f%% of a step "
                   "(< 1%% required)\n",
                   1e2 * overhead_fraction);
      ok = false;
    }
    if (collector.event_count() == 0) {
      std::fprintf(stderr, "FAIL: traced twin flushed no events\n");
      ok = false;
    }

    util::Json obs = util::Json::object();
    obs["disabled_span_seconds"] = disabled_span_seconds;
    obs["spans_per_step"] = spans_per_step;
    obs["overhead_seconds_per_step"] = overhead_seconds;
    obs["reference_case"] = ref_label;
    obs["reference_step_seconds"] = ref_step_seconds;
    obs["overhead_fraction"] = overhead_fraction;
    obs["traced_twin_events"] = collector.event_count();
    doc["obs"] = std::move(obs);
  }

  // Numerical-health sentinel overhead gate: at the service's default
  // cadence (a check every step) the sentinel's whole per-step cost — one
  // local_diagnostics sweep plus the verdict logic — must stay under 1%
  // of a dynamics step.  At cadence 0 the campaign loop never evaluates
  // any of it (the entire block sits behind health.enabled()), so the
  // disabled overhead is zero by construction and is reported as such.
  {
    core::SerialCore score(cfg);
    auto xi = score.make_state();
    state::InitialOptions ic;
    ic.kind = state::InitialCondition::kPlanetaryWave;
    score.initialize(xi, ic);
    score.run(xi, 1);  // measure on a physical state, not the IC
    core::HealthOptions hopts;
    hopts.cadence = 1;
    core::HealthSentinel sentinel(hopts);
    constexpr int kCheckIters = 200;
    util::Timer check_timer;
    for (int i = 0; i < kCheckIters; ++i) {
      const core::GlobalDiag d =
          core::local_diagnostics(score.op_context(), xi);
      if (!sentinel.check(d).empty()) {
        std::fprintf(stderr,
                     "FAIL: sentinel tripped on a healthy bench state\n");
        ok = false;
        break;
      }
    }
    const double check_seconds = check_timer.seconds() / kCheckIters;

    // Reference: the serial case's per-step wall measured above (the
    // sentinel check is rank-local up to one small allreduce, so the
    // serial step is the honest denominator).
    double ref_step_seconds = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i)
      if (cases[i].label == "serial") ref_step_seconds = results[i].wall / steps;
    const double overhead_fraction =
        ref_step_seconds > 0.0 ? check_seconds / ref_step_seconds : 0.0;
    std::printf(
        "health sentinel: %.2f us/check at cadence 1 (%.4f%% of the serial "
        "%.2f ms step; exactly 0 at cadence 0)\n",
        1e6 * check_seconds, 1e2 * overhead_fraction, 1e3 * ref_step_seconds);
    if (ref_step_seconds <= 0.0) {
      std::fprintf(stderr, "FAIL: health gate found no serial reference\n");
      ok = false;
    } else if (overhead_fraction >= 0.01) {
      std::fprintf(stderr,
                   "FAIL: sentinel overhead %.4f%% of a step at cadence 1 "
                   "(< 1%% required)\n",
                   1e2 * overhead_fraction);
      ok = false;
    }

    util::Json health = util::Json::object();
    health["check_seconds"] = check_seconds;
    health["reference_case"] = "serial";
    health["reference_step_seconds"] = ref_step_seconds;
    health["overhead_fraction"] = overhead_fraction;
    health["disabled_overhead_fraction"] = 0.0;  // cadence 0: nothing runs
    doc["health"] = std::move(health);
  }

  {
    std::ofstream out(out_path);
    out << doc.dump(2) << "\n";
  }
  std::printf("\nwrote %s\n", out_path.c_str());

  // Self-check: the file must re-parse and satisfy the schema.
  std::ifstream in(out_path);
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    const util::Json parsed = util::Json::parse(buf.str());
    const std::string problem = validate(parsed);
    if (!problem.empty()) {
      std::fprintf(stderr, "FAIL: emitted JSON invalid: %s\n",
                   problem.c_str());
      ok = false;
    }
  } catch (const util::JsonError& e) {
    std::fprintf(stderr, "FAIL: emitted JSON does not parse: %s\n",
                 e.what());
    ok = false;
  }
  return ok ? 0 : 1;
}
