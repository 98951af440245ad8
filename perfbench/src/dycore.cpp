#include "dycore.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <mutex>
#include <random>
#include <stdexcept>

#include "comm/collectives.hpp"
#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/diagnostics.hpp"
#include "core/exchange.hpp"
#include "core/health.hpp"
#include "core/original_core.hpp"
#include "core/serial_core.hpp"
#include "fft/fft.hpp"
#include "mesh/decomp.hpp"
#include "mesh/latlon.hpp"
#include "ops/adaptation.hpp"
#include "ops/advection.hpp"
#include "ops/smoothing.hpp"
#include "ops/subrange.hpp"
#include "ops/vertical.hpp"
#include "util/checkpoint.hpp"

namespace pb {
namespace {

using namespace ca;

/// Untimed steps before the window: the CA core's first step differs (no
/// deferred smoothing, no stale C), and pools and workspaces fill.
constexpr int kWarmupSteps = 2;
/// Each layer replay runs this many steps' worth of calls per rank.
constexpr int kReplaySteps = 2;
constexpr int kHealthReps = 20;
/// Checkpoint writes per rank: a full base, four deltas, a fresh base.
constexpr int kCheckpointWrites = 6;
constexpr int kChainCap = 4;
/// Traced runs switch the program's own obs tracing on every other block of
/// this many steps.
constexpr std::size_t kTraceBlock = 5;

std::string& dump_dir_storage() {
  static std::string dir = ".";
  return dir;
}

comm::RunOptions run_options() {
  comm::RunOptions o;
  // A dead peer must end the run well inside the benchmark's time limit.
  o.recv_timeout = std::chrono::seconds(30);
  o.obs.dump_dir = dump_dir();
  return o;
}

/// Calls fn(core) with the shape's distributed core built on ctx.
template <typename Fn>
void with_core(const Shape& s, comm::Context& ctx, Fn&& fn) {
  if (s.kind == CoreKind::kCA) {
    core::CACore c(s.cfg, ctx, s.dims, s.ca);
    fn(c);
  } else {
    core::OriginalCore c(s.cfg, ctx, core::DecompScheme::kYZ, s.dims);
    fn(c);
  }
}

std::uint64_t digest_state(const state::State& xi) {
  Digest d;
  for (auto raw : {xi.u().raw(), xi.v().raw(), xi.phi().raw()})
    d.add(raw.data(), raw.size_bytes());
  d.add(xi.psa().raw().data(), xi.psa().raw().size_bytes());
  return d.value();
}

// --- the per-step call schedule of each core ------------------------------

enum class Op { kAdaptation, kAdvection };

/// One operator evaluation of a step: local diagnostics, the column
/// integrals when C is fresh, the stencil operator and the polar filter.
struct Eval {
  Op op;
  mesh::Box window;
  bool fresh_c;
};

struct Schedule {
  std::vector<Eval> evals;
  int updates = 0;          ///< stencil updates per step (3M + 3)
  int smoothing_calls = 0;  ///< apply_smoothing* calls per step
  int fills = 0;            ///< apply_physical_boundaries calls per step
};

/// CACore::extended_window: the block grown toward real neighbors.
mesh::Box extended(const mesh::DomainDecomp& d, int ey, int ez) {
  mesh::Box b{0, d.lnx(), 0, d.lny(), 0, d.lnz()};
  if (!d.at_north_pole()) b.j0 -= ey;
  if (!d.at_south_pole()) b.j1 += ey;
  if (!d.at_model_top()) b.k0 -= ez;
  if (!d.at_surface()) b.k1 += ez;
  return b;
}

/// The calls one steady-state step() makes on the rank owning `d`, as the
/// cores issue them at this commit (OriginalCore::step with the blocking
/// exchange; CACore::step after its first step, with the shape's switches).
/// A core whose step changes without this schedule following shows up as
/// growth of core.unattributed_s.
Schedule step_schedule(const Shape& s, const mesh::DomainDecomp& d) {
  const int M = s.cfg.M;
  const mesh::Box interior{0, d.lnx(), 0, d.lny(), 0, d.lnz()};
  Schedule sc;
  sc.updates = 3 * M + 3;
  if (s.kind != CoreKind::kCA) {
    for (int u = 0; u < 3 * M; ++u)
      sc.evals.push_back({Op::kAdaptation, interior, true});
    for (int u = 0; u < 3; ++u)
      sc.evals.push_back({Op::kAdvection, interior, false});
    sc.smoothing_calls = 1;
    sc.fills = 3 * M + 4;  // one per refresh_halos
    return sc;
  }
  const bool split_north = !d.at_north_pole() && s.dims[1] > 1;
  const bool split_south = !d.at_south_pole() && s.dims[1] > 1;
  const bool approx = s.ca.approximate_iteration;
  const int y0 = split_north ? 4 : 0;
  const int y1 = split_south ? d.lny() - 4 : d.lny();
  int u = 0;
  for (int iter = 0; iter < M; ++iter) {
    const mesh::Box w1 = extended(d, 3 * M - 1 - u, 0);
    if (iter == 0 && s.ca.overlap && approx) {
      const mesh::Box inner{0, d.lnx(), y0, y1, 0, d.lnz()};
      if (!inner.empty()) sc.evals.push_back({Op::kAdaptation, inner, false});
      for (const mesh::Box& b : ops::subtract_box(w1, inner))
        sc.evals.push_back({Op::kAdaptation, b, false});
    } else {
      sc.evals.push_back({Op::kAdaptation, w1, !approx});
    }
    ++u;
    for (int k = 0; k < 2; ++k, ++u)
      sc.evals.push_back(
          {Op::kAdaptation, extended(d, 3 * M - 1 - u, 0), true});
  }
  const mesh::Box aw1 = extended(d, 2, 2);
  if (s.ca.overlap) {
    const mesh::Box inner{0,  d.lnx(), y0, y1, d.at_model_top() ? 0 : 2,
                          d.at_surface() ? d.lnz() : d.lnz() - 2};
    if (!inner.empty()) sc.evals.push_back({Op::kAdvection, inner, false});
    for (const mesh::Box& b : ops::subtract_box(aw1, inner))
      sc.evals.push_back({Op::kAdvection, b, false});
  } else {
    sc.evals.push_back({Op::kAdvection, aw1, false});
  }
  sc.evals.push_back({Op::kAdvection, extended(d, 1, 1), false});
  sc.evals.push_back({Op::kAdvection, extended(d, 0, 0), false});
  sc.smoothing_calls = s.ca.fuse_smoothing ? 2 : 1;
  sc.fills = 2 + 4 * M + 5;
  return sc;
}

/// What FourierFilter::apply_local does on `w`: the FFT lines it
/// transforms (U, V where sin(theta_v) > 0, Phi per level, plus one psa line
/// per active row) and the active rows.  Each line acquires two workspace
/// buffers (spectrum, scratch), each row one more (the psa staging row).
struct FilterWork {
  std::uint64_t lines = 0;
  std::uint64_t rows = 0;
  std::uint64_t acquires() const { return 2 * lines + rows; }
};

FilterWork filter_work(const ops::FourierFilter& f, const ops::OpContext& ctx,
                       const mesh::Box& w, int ny) {
  FilterWork n;
  for (int j = w.j0; j < w.j1; ++j) {
    const int gj = ctx.gj(j);
    if (gj < 0 || gj >= ny || !f.row_active(gj)) continue;
    const int per_level = ctx.sin_tv(j) > 1e-12 ? 3 : 2;
    n.lines += static_cast<std::uint64_t>(per_level * (w.k1 - w.k0) + 1);
    ++n.rows;
  }
  return n;
}

std::uint64_t filter_acquires(const ops::FourierFilter& f) {
  return f.workspace_allocations() + f.workspace_reuses();
}

/// Replays one rank's step calls under spans on lane `lane`: ops, the
/// boundary fill, the sentinel check, then collective checkpoint writes of
/// freshly stepped states.
template <typename Core>
void probe_rank(Core& core, const Shape& s, state::State& xi, Trace& tr,
                int lane, const std::string& scratch) {
  const ops::OpContext& ctx = core.op_context();
  const mesh::DomainDecomp& d = core.decomp();
  const Schedule sc = step_schedule(s, d);
  const int depth = s.kind == CoreKind::kCA ? 3 * s.cfg.M : 1;
  ops::DiagWorkspace ws(d.lnx(), d.lny(), d.lnz(),
                        core::halos_for_depth(depth));
  state::State tend = core.make_state();
  state::State tmp = xi;
  const ops::FourierFilter& filter = core.filter();
  const mesh::Box interior = xi.interior();
  const bool split_north = !d.at_north_pole() && s.dims[1] > 1;
  const bool split_south = !d.at_south_pole() && s.dims[1] > 1;
  const auto h = xi.u().halo();
  const int fill_y = std::max(h.y, xi.psa().hy());

  for (int rep = 0; rep < kReplaySteps; ++rep) {
    for (const Eval& e : sc.evals) {
      const double cells = static_cast<double>(e.window.volume());
      {
        auto sp = tr.span(lane, "ops.local_diag", cells);
        ops::compute_local_diag(ctx, xi, e.window, ws);
      }
      if (e.fresh_c) {
        const bool block_face =
            s.kind != CoreKind::kCA || s.ca.fresh_c_on_block_face;
        const mesh::Box ring = ops::face_ring(block_face ? interior : e.window);
        auto sp = tr.span(lane, "ops.column",
                          static_cast<double>(ring.volume()));
        ops::column_partials(ctx, xi, ring, ws.local, ws.own_div, ws.own_phi);
        ops::column_finish(ctx, xi, ring, ws.local, ws.base_div, ws.total_div,
                           ws.base_phi, ws.own_phi, ws.total_phi, ws.vert);
      }
      if (e.op == Op::kAdaptation) {
        auto sp = tr.span(lane, "ops.adaptation", cells);
        ops::apply_adaptation(ctx, xi, ws.local, ws.vert, tend, e.window);
      } else {
        auto sp = tr.span(lane, "ops.advection", cells);
        ops::apply_advection(ctx, xi, ws.local, ws.vert, tend, e.window);
      }
      {
        auto sp = tr.span(lane, "ops.filter",
                          static_cast<double>(
                              filter_work(filter, ctx, e.window, s.cfg.ny).lines));
        filter.apply_local(ctx, tend, e.window);
      }
    }
    if (s.kind == CoreKind::kCA && s.ca.fuse_smoothing) {
      tmp = xi;
      {
        auto sp = tr.span(lane, "ops.smoothing");
        ops::apply_smoothing_former(ctx, tmp, interior, split_north,
                                    split_south);
      }
      auto sp = tr.span(lane, "ops.smoothing");
      ops::apply_smoothing_later(ctx, xi, tmp, interior, split_north,
                                 split_south);
    } else {
      auto sp = tr.span(lane, "ops.smoothing");
      ops::apply_smoothing(ctx, xi, tmp, interior);
    }
    tmp = xi;
    for (int f = 0; f < sc.fills; ++f) {
      auto sp = tr.span(lane, "core.boundary_fill");
      core::apply_physical_boundaries(ctx, tmp, h.x, fill_y, h.z);
    }
  }

  core::HealthOptions hopts;
  hopts.cadence = 1;
  core::HealthSentinel sentinel(hopts);
  for (int rep = 0; rep < kHealthReps; ++rep) {
    auto sp = tr.span(lane, "core.health.check");
    const core::GlobalDiag diag = core::local_diagnostics(ctx, xi);
    if (!sentinel.check(diag).empty())
      throw std::runtime_error("sentinel tripped on the probe state");
  }

  // Checkpoint writes of consecutive states (collective: every rank steps).
  const mesh::LatLonMesh mesh(s.cfg.nx, s.cfg.ny, s.cfg.nz);
  util::CheckpointSession session(
      scratch + "/rank" + std::to_string(lane) + ".ckpt",
      {.chain_cap = kChainCap, .block_bytes = 4096});
  for (int w = 1; w <= kCheckpointWrites; ++w) {
    core.step(xi);
    util::CarryWriter carry;
    if constexpr (requires { core.save_carry(carry); }) core.save_carry(carry);
    const std::uint64_t before = session.stats().bytes_written;
    const double t0 = now_s();
    session.write(mesh, d, xi, w, w * s.cfg.dt_advect, carry.bytes());
    const double t1 = now_s();
    tr.add(lane, "util.checkpoint.write", t0, t1,
           static_cast<double>(session.stats().bytes_written - before));
  }
  if constexpr (requires { core.finalize(xi); }) core.finalize(xi);
}

state::State global_run(const Shape& s, const state::InitialOptions& ic,
                        int steps) {
  if (s.kind == CoreKind::kSerial) {
    core::SerialCore c(s.cfg);
    auto xi = c.make_state();
    c.initialize(xi, ic);
    c.run(xi, steps);
    return xi;
  }
  state::State out;
  comm::Runtime::run(s.ranks(), run_options(), [&](comm::Context& ctx) {
    with_core(s, ctx, [&](auto& core) {
      auto xi = core.make_state();
      core.initialize(xi, ic);
      core.run(xi, steps);
      auto g = core::gather_global(core.op_context(), ctx, core.topology(), xi);
      if (ctx.world_rank() == 0) out = std::move(g);
    });
  });
  return out;
}

bool program_traced_step(std::size_t n) { return (n / kTraceBlock) % 2 == 1; }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

void set_dump_dir(std::string dir) { dump_dir_storage() = std::move(dir); }
const std::string& dump_dir() { return dump_dir_storage(); }

std::vector<double> StepRun::steps_where(bool with_trace) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < step_s.size(); ++i)
    if (static_cast<bool>(traced[i]) == with_trace) out.push_back(step_s[i]);
  return out;
}

state::InitialOptions seeded_initial(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> amp(0.2, 0.4), jet(25.0, 35.0);
  state::InitialOptions ic;
  ic.kind = state::InitialCondition::kPlanetaryWave;
  ic.wave_amplitude = amp(rng);
  ic.jet_speed = jet(rng);
  ic.seed = static_cast<unsigned>(rng());
  return ic;
}

StepRun run_steps(const Shape& shape, const state::InitialOptions& ic,
                  const StepOptions& o) {
  const int p = shape.ranks();
  StepRun run;
  run.ranks.resize(static_cast<std::size_t>(p));
  std::vector<std::uint64_t> digests(static_cast<std::size_t>(p), 0);
  std::vector<double> ends(static_cast<std::size_t>(p), 0.0);

  // Fence between steps: the completion runs once all ranks arrived, so
  // the slowest rank's end minus the common start is the step's wall.
  // Phase 0 ends set-up, phase 1 ends warm-up, later phases end steps.
  const double t_launch = now_s();
  int phase = 0;
  bool running = true;
  std::atomic<bool> abort{false};
  double window_start = 0.0, step_start = 0.0;
  auto on_phase = [&]() noexcept {
    const double t = now_s();
    if (phase == 0) {
      run.setup_s = t - t_launch;
    } else if (phase == 1) {
      window_start = t;
    } else {
      run.traced.push_back(o.program_trace != nullptr &&
                           program_traced_step(run.step_s.size()));
      run.step_s.push_back(*std::max_element(ends.begin(), ends.end()) -
                           step_start);
    }
    if (phase >= 1) {
      const bool more = t - window_start < o.seconds ||
                        static_cast<int>(run.step_s.size()) < o.min_steps;
      running = more && !abort.load();
      if (!running) run.window_s = t - window_start;
    }
    ++phase;
    step_start = now_s();
  };
  std::barrier fence(p, on_phase);

  try {
    comm::Runtime::run(p, run_options(), [&](comm::Context& ctx) {
      const int r = ctx.world_rank();
      bool fenced = true;
      try {
        with_core(shape, ctx, [&](auto& core) {
          auto xi = core.make_state();
          core.initialize(xi, ic);
          digests[static_cast<std::size_t>(r)] = digest_state(xi);
          fence.arrive_and_wait();
          for (int s = 0; s < kWarmupSteps; ++s) core.step(xi);
          fence.arrive_and_wait();

          const comm::PhaseStats c0 = ctx.stats().grand_totals();
          const std::uint64_t f0 = filter_acquires(core.filter());
          const util::PhaseTimers& timers = ctx.timers();
          RankWindow& rw = run.ranks[static_cast<std::size_t>(r)];
          // Re-arms this rank's tracer with the program's obs tracing on or
          // off (flushing what it exported), keeping every other knob.
          const obs::TraceOptions base_obs = ctx.tracer().options();
          auto program_tracing = [&](bool on) {
            ctx.tracer().flush();
            obs::TraceOptions t = base_obs;
            t.trace = on;
            ctx.tracer().configure(t, r, &ctx.timers(), o.program_trace);
          };
          std::size_t n = 0;
          for (; running; ++n) {
            if (o.program_trace != nullptr && n % kTraceBlock == 0)
              program_tracing(program_traced_step(n));
            const double ex0 = timers.total("exchange");
            const double wt0 = timers.total("exchange_wait");
            const double co0 = timers.total("collective");
            {
              Trace::Scope sp = o.trace != nullptr ? o.trace->span(r, "core.step")
                                                   : Trace::Scope{};
              core.step(xi);
            }
            ends[static_cast<std::size_t>(r)] = now_s();
            rw.exchange.push_back(timers.total("exchange") - ex0);
            rw.exchange_wait.push_back(timers.total("exchange_wait") - wt0);
            rw.collective.push_back(timers.total("collective") - co0);
            fence.arrive_and_wait();
          }
          fenced = false;
          if (o.program_trace != nullptr) program_tracing(false);
          const comm::PhaseStats c1 = ctx.stats().grand_totals();
          rw.messages = c1.p2p_messages - c0.p2p_messages;
          rw.bytes = c1.p2p_bytes - c0.p2p_bytes;
          rw.collective_calls = c1.collective_calls - c0.collective_calls;
          rw.filter_acquires = filter_acquires(core.filter()) - f0;
          FilterWork per_step;
          for (const Eval& e : step_schedule(shape, core.decomp()).evals) {
            const FilterWork w = filter_work(core.filter(), core.op_context(),
                                             e.window, shape.cfg.ny);
            per_step.lines += w.lines;
            per_step.rows += w.rows;
          }
          rw.filter_acquires_expected = n * per_step.acquires();
          rw.filter_rows_per_step = static_cast<double>(per_step.rows);

          if constexpr (requires { core.finalize(xi); }) core.finalize(xi);
          const core::GlobalDiag diag = core::reduce_diagnostics(
              ctx, ctx.world(), core::local_diagnostics(core.op_context(), xi));
          core::HealthOptions hopts;
          hopts.cadence = 1;
          const std::string verdict = core::HealthSentinel(hopts).check(diag);
          if (r == 0) run.health = verdict;
          if (o.probe) probe_rank(core, shape, xi, *o.trace, r, o.scratch_dir);
        });
      } catch (...) {
        abort = true;
        if (fenced) fence.arrive_and_drop();
        throw;
      }
    });
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  Digest all;
  for (std::uint64_t d : digests) all.add_value(d);
  run.input_digest = all.value();
  return run;
}

double time_setup(const Shape& shape, const state::InitialOptions& ic) {
  std::mutex mu;
  const double t0 = now_s();
  double last = t0;
  comm::Runtime::run(shape.ranks(), run_options(), [&](comm::Context& ctx) {
    with_core(shape, ctx, [&](auto& core) {
      auto xi = core.make_state();
      core.initialize(xi, ic);
      std::lock_guard<std::mutex> lock(mu);
      last = std::max(last, now_s());
    });
  });
  return last - t0;
}

void check_schedule(const StepRun& run, Tally& tally) {
  std::string mismatch;
  for (std::size_t r = 0; r < run.ranks.size(); ++r) {
    const RankWindow& rw = run.ranks[r];
    if (rw.filter_acquires == rw.filter_acquires_expected) continue;
    mismatch += " rank " + std::to_string(r) + ": " +
                std::to_string(rw.filter_acquires) + " filter acquires, " +
                std::to_string(rw.filter_acquires_expected) + " expected;";
  }
  tally.check(mismatch.empty(),
              "step schedule no longer matches the core's filter work:" + mismatch);
}

void check_twins(const Shape& shape, const state::InitialOptions& ic,
                 Tally& tally) {
  constexpr int kSteps = 2;
  Shape base = shape;
  base.cfg.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  base.ca = core::CAOptions{};
  Shape serial = base;
  serial.kind = CoreKind::kSerial;
  serial.dims = {1, 1, 1};
  Shape original = base;
  original.kind = CoreKind::kOriginal;
  Shape exact = base;
  exact.kind = CoreKind::kCA;
  exact.ca.approximate_iteration = false;
  exact.ca.fresh_c_on_block_face = false;
  Shape paper = base;
  paper.kind = CoreKind::kCA;

  auto diff = [](const state::State& a, const state::State& b) {
    return state::State::max_abs_diff(a, b, a.interior());
  };
  auto check = [&](double d, double bound, const std::string& what) {
    tally.check(d < bound, what + ": max |diff| " + std::to_string(d) +
                               " (bound " + std::to_string(bound) + ")");
  };
  try {
    const state::State gs = global_run(serial, ic, kSteps);
    const state::State go = global_run(original, ic, kSteps);
    const state::State ge = global_run(exact, ic, kSteps);
    const state::State gp = global_run(paper, ic, kSteps);
    check(diff(go, gs), 1e-8, "original vs serial");
    check(diff(ge, go), 1e-7, "CA exact mode vs original");
    check(diff(gp, ge), 1e-2, "CA default vs exact mode");
  } catch (const std::exception& e) {
    for (int i = 0; i < 3; ++i)
      tally.check(false, std::string("twin run failed: ") + e.what());
  }
}

Metrics dycore_layers(const Shape& shape, const state::InitialOptions& ic,
                      const StepRun& traced, Trace& trace) {
  const int p = shape.ranks();
  const int nx = shape.cfg.nx;

  // Serial reference step on the same mesh (parallel efficiency).
  {
    core::SerialCore sc(shape.cfg);
    auto xi = sc.make_state();
    sc.initialize(xi, ic);
    sc.step(xi);
    for (int s = 0; s < 3; ++s) {
      auto sp = trace.span(kMainLane, "core.serial_step");
      sc.step(xi);
    }
  }

  // Real-line FFT at the workload's nx (forward + inverse per line).
  constexpr int kLinesPerBatch = 200;
  {
    fft::RealPlan plan(static_cast<std::size_t>(nx));
    std::vector<double> line(static_cast<std::size_t>(nx)), back(line.size());
    for (int i = 0; i < nx; ++i)
      line[static_cast<std::size_t>(i)] = std::sin(0.37 * i) + 0.1 * (i % 7);
    std::vector<fft::cplx> spec(line.size() / 2 + 1), scratch(plan.scratch_size());
    for (int b = 0; b < 20; ++b) {
      auto sp = trace.span(kMainLane, "fft.real_line_batch", kLinesPerBatch);
      for (int l = 0; l < kLinesPerBatch; ++l) {
        plan.forward(line, spec, scratch);
        plan.inverse(spec, back, scratch);
      }
    }
  }

  // Comm counters of the window: counts are exact totals over all measured
  // steps (tracing does not change them).
  const double steps = static_cast<double>(traced.step_s.size());
  double messages = 0.0, bytes = 0.0, colls = 0.0;
  for (const RankWindow& rw : traced.ranks) {
    messages += static_cast<double>(rw.messages);
    bytes += static_cast<double>(rw.bytes);
    colls += static_cast<double>(rw.collective_calls);
  }

  // Point-to-point ping-pong at the window's mean message size.
  constexpr int kRoundTrips = 200;
  const std::size_t msg_bytes = messages > 0.0
      ? static_cast<std::size_t>(std::llround(bytes / messages)) : 8;
  comm::Runtime::run(2, run_options(), [&](comm::Context& ctx) {
    const int r = ctx.world_rank();
    std::vector<std::byte> out(msg_bytes), in(msg_bytes);
    for (int b = 0; b < 10; ++b) {
      auto sp = trace.span(kReplayLaneBase + r, "comm.p2p_batch", 2 * kRoundTrips);
      for (int i = 0; i < kRoundTrips; ++i) {
        if (r == 0) {
          comm::Request s = ctx.isend(ctx.world(), 1, 7, out);
          comm::Request q = ctx.irecv(ctx.world(), 1, 7, in);
          ctx.wait(s);
          ctx.wait(q);
        } else {
          comm::Request q = ctx.irecv(ctx.world(), 0, 7, in);
          ctx.wait(q);
          comm::Request s = ctx.isend(ctx.world(), 0, 7, out);
          ctx.wait(s);
        }
      }
    }
  });

  // z-line allreduce at the block's column face (both C sums at once).
  constexpr int kAllreduces = 50;
  const int lny0 = mesh::block_range(shape.cfg.ny, shape.dims[1], 0).count;
  const std::size_t face = 2 * static_cast<std::size_t>(nx + 4) *
                           static_cast<std::size_t>(lny0 + 2);
  comm::Runtime::run(std::max(shape.dims[2], 2), run_options(),
                     [&](comm::Context& ctx) {
    std::vector<double> in(face, 1.0), out(face);
    for (int b = 0; b < 10; ++b) {
      auto sp = trace.span(kReplayLaneBase + ctx.world_rank(),
                           "comm.allreduce_batch", kAllreduces);
      for (int i = 0; i < kAllreduces; ++i)
        comm::allreduce<double>(ctx, ctx.world(), in, out, comm::ReduceOp::kSum,
                                shape.cfg.z_allreduce);
    }
  });

  const std::vector<SpanRecord> spans = trace.spans();
  const char* replayed[] = {"ops.local_diag", "ops.column",  "ops.adaptation",
                            "ops.advection",  "ops.filter",  "ops.smoothing",
                            "core.boundary_fill"};
  // Per rank, over the steps without the program's tracing: the comm
  // phase seconds, and the busy time, i.e. the step() span minus the
  // exchange wait and collective time the counters charged to that step.
  std::vector<double> exch, wait, coll, busy, unattributed;
  for (int r = 0; r < p; ++r) {
    const RankWindow& rw = traced.ranks[static_cast<std::size_t>(r)];
    const std::vector<double> step_spans = durations(spans, "core.step", r);
    double span_sum = 0.0, ex_s = 0.0, wait_s = 0.0, coll_s = 0.0, nk = 0.0;
    const std::size_t n_steps = std::min(step_spans.size(), traced.traced.size());
    for (std::size_t n = 0; n < n_steps; ++n) {
      if (traced.traced[n]) continue;
      span_sum += step_spans[n];
      ex_s += rw.exchange[n];
      wait_s += rw.exchange_wait[n];
      coll_s += rw.collective[n];
      nk += 1.0;
    }
    exch.push_back(ex_s / nk);
    wait.push_back(wait_s / nk);
    coll.push_back(coll_s / nk);
    busy.push_back((span_sum - wait_s - coll_s) / nk);
    double replay = 0.0;
    for (const char* name : replayed) replay += sum(durations(spans, name, r));
    unattributed.push_back((span_sum - wait_s - coll_s - ex_s) / nk -
                           replay / kReplaySteps);
  }

  // Cells evaluated per owned cell, from each rank's window sizes.
  std::vector<double> redundancy;
  const mesh::LatLonMesh mesh(shape.cfg.nx, shape.cfg.ny, shape.cfg.nz);
  for (int cz = 0; cz < shape.dims[2]; ++cz)
    for (int cy = 0; cy < shape.dims[1]; ++cy) {
      const mesh::DomainDecomp d(mesh, shape.dims, {0, cy, cz});
      const Schedule sc = step_schedule(shape, d);
      double cells = 0.0;
      for (const Eval& e : sc.evals) cells += static_cast<double>(e.window.volume());
      redundancy.push_back(cells / (sc.updates * static_cast<double>(d.lnx()) *
                                    d.lny() * d.lnz()));
    }

  Metrics m;
  const double busy_mean = mean(busy);
  const double step_p50 = median(traced.steps_where(false));
  m.push_back({"core.step_busy_s", "s", busy_mean});
  m.push_back({"core.rank_imbalance", "1",
               (*std::max_element(busy.begin(), busy.end()) - busy_mean) / busy_mean});
  m.push_back({"core.cells_per_owned_cell", "1", mean(redundancy)});
  m.push_back({"core.boundary_fill.s_per_call", "s",
               mean(durations(spans, "core.boundary_fill"))});
  m.push_back({"core.unattributed_s", "s", mean(unattributed)});
  m.push_back({"core.parallel_efficiency", "1",
               median(durations(spans, "core.serial_step")) / (p * step_p50)});
  const double calls_norm = static_cast<double>(p) * kReplaySteps;
  for (const char* op : {"adaptation", "advection", "smoothing", "local_diag",
                         "column", "filter"}) {
    const std::string name = std::string("ops.") + op;
    const std::vector<double> d = durations(spans, name);
    m.push_back({name + ".s_per_call", "s", mean(d)});
    m.push_back({name + ".calls_per_step", "count",
                 static_cast<double>(d.size()) / calls_norm});
  }
  for (const char* op : {"adaptation", "advection"}) {
    const std::string name = std::string("ops.") + op;
    m.push_back({name + ".cells_per_s", "cells/s",
                 total_work(spans, name) / sum(durations(spans, name))});
  }
  m.push_back({"fft.real_line_s", "s",
               median(durations(spans, "fft.real_line_batch")) / kLinesPerBatch});
  // Lines the filter transformed per step, all ranks, from its workspace
  // counter: each line acquires two buffers, each active row one more.
  double lines = 0.0;
  for (const RankWindow& rw : traced.ranks)
    lines += (static_cast<double>(rw.filter_acquires) / steps -
              rw.filter_rows_per_step) / 2.0;
  m.push_back({"fft.lines_per_step", "count", lines});
  m.push_back({"comm.messages_per_step", "count", messages / steps});
  m.push_back({"comm.bytes_per_step", "B", bytes / steps});
  m.push_back({"comm.collective_calls_per_step", "count", colls / steps});
  m.push_back({"comm.exchange_s_per_step", "s", mean(exch)});
  m.push_back({"comm.exchange_wait_s_max", "s",
               *std::max_element(wait.begin(), wait.end())});
  m.push_back({"comm.exchange_wait_s_mean", "s", mean(wait)});
  m.push_back({"comm.collective_s_per_step", "s", mean(coll)});
  m.push_back({"comm.p2p_s_per_msg", "s",
               median(durations(spans, "comm.p2p_batch", kReplayLaneBase)) /
                   (2 * kRoundTrips)});
  m.push_back({"comm.allreduce_s_per_call", "s",
               median(durations(spans, "comm.allreduce_batch", kReplayLaneBase)) /
                   kAllreduces});
  const std::vector<double> writes = durations(spans, "util.checkpoint.write");
  m.push_back({"util.checkpoint.write_s_p50", "s", median(writes)});
  m.push_back({"util.checkpoint.bytes_per_write", "B",
               total_work(spans, "util.checkpoint.write") /
                   static_cast<double>(writes.size())});
  m.push_back({"core.health.check_s", "s",
               median(durations(spans, "core.health.check"))});
  return m;
}

}  // namespace pb
