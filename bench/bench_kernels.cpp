// Micro-benchmarks of the operator kernels (google-benchmark): the
// adaptation and advection stencils, smoothing, vertical integrals,
// Fourier filtering, and the FFT sizes the model uses.
#include <benchmark/benchmark.h>

#include "core/exchange.hpp"
#include "core/serial_core.hpp"
#include "fft/fft.hpp"
#include "ops/adaptation.hpp"
#include "ops/advection.hpp"
#include "ops/filter.hpp"
#include "ops/smoothing.hpp"
#include "ops/tendency.hpp"
#include "ops/tracer.hpp"
#include "swe/shallow_water.hpp"

namespace {

using namespace ca;

struct KernelFixture {
  KernelFixture(int nx, int ny, int nz)
      : core([&] {
          core::DycoreConfig c;
          c.nx = nx;
          c.ny = ny;
          c.nz = nz;
          return c;
        }()),
        xi(core.make_state()),
        tend(core.make_state()),
        ws(nx, ny, nz, core::halos_for_depth(1)) {
    state::InitialOptions opt;
    opt.kind = state::InitialCondition::kPlanetaryWave;
    core.initialize(xi, opt);
    core.fill_boundaries(xi);
    ops::compute_local_diag(core.op_context(), xi, xi.interior(), ws);
    core::compute_c(core.op_context(), nullptr, nullptr, xi, xi.interior(), ws,
                    comm::AllreduceAlgorithm::kAuto);
  }
  core::SerialCore core;
  state::State xi, tend;
  ops::DiagWorkspace ws;
};

KernelFixture& fixture() {
  static KernelFixture f(96, 48, 16);
  return f;
}

void BM_AdaptationStencil(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    ops::apply_adaptation(f.core.op_context(), f.xi, f.ws.local, f.ws.vert,
                          f.tend, f.xi.interior());
    benchmark::DoNotOptimize(f.tend.u()(0, 0, 0));
  }
  state.SetItemsProcessed(state.iterations() * 96 * 48 * 16);
}
BENCHMARK(BM_AdaptationStencil);

void BM_AdvectionStencil(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    ops::apply_advection(f.core.op_context(), f.xi, f.ws.local, f.ws.vert,
                         f.tend, f.xi.interior());
    benchmark::DoNotOptimize(f.tend.u()(0, 0, 0));
  }
  state.SetItemsProcessed(state.iterations() * 96 * 48 * 16);
}
BENCHMARK(BM_AdvectionStencil);

void BM_AdvectionStencilSecondOrder(benchmark::State& state) {
  core::DycoreConfig c;
  c.nx = 96;
  c.ny = 48;
  c.nz = 16;
  c.params.x_order = 2;
  static KernelFixture f2 = [] {
    KernelFixture f(96, 48, 16);
    return f;
  }();
  auto ctx = f2.core.op_context();
  ctx.params.x_order = 2;
  for (auto _ : state) {
    ops::apply_advection(ctx, f2.xi, f2.ws.local, f2.ws.vert, f2.tend,
                         f2.xi.interior());
    benchmark::DoNotOptimize(f2.tend.u()(0, 0, 0));
  }
  state.SetItemsProcessed(state.iterations() * 96 * 48 * 16);
}
BENCHMARK(BM_AdvectionStencilSecondOrder);

void BM_Smoothing(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    ops::apply_smoothing(f.core.op_context(), f.xi, f.tend,
                         f.xi.interior());
    benchmark::DoNotOptimize(f.tend.phi()(0, 0, 0));
  }
  state.SetItemsProcessed(state.iterations() * 96 * 48 * 16);
}
BENCHMARK(BM_Smoothing);

void BM_VerticalIntegrals(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    ops::compute_local_diag(f.core.op_context(), f.xi, f.xi.interior(), f.ws);
    core::compute_c(f.core.op_context(), nullptr, nullptr, f.xi,
                    f.xi.interior(), f.ws, comm::AllreduceAlgorithm::kAuto);
    benchmark::DoNotOptimize(f.ws.vert.sdot(0, 0, 0));
  }
  state.SetItemsProcessed(state.iterations() * 96 * 48 * 16);
}
BENCHMARK(BM_VerticalIntegrals);

void BM_FourierFilterStep(benchmark::State& state) {
  auto& f = fixture();
  ops::FourierFilter filt(f.core.op_context());
  for (auto _ : state) {
    filt.apply_local(f.core.op_context(), f.xi, f.xi.interior());
    benchmark::DoNotOptimize(f.xi.u()(0, 0, 0));
  }
}
BENCHMARK(BM_FourierFilterStep);

void BM_FftForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  fft::Plan plan(n);
  std::vector<fft::cplx> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = fft::cplx{std::sin(0.1 * static_cast<double>(i)), 0.0};
  for (auto _ : state) {
    plan.forward(data);
    benchmark::DoNotOptimize(data[0]);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_FftForward)
    ->Arg(60)
    ->Arg(120)
    ->Arg(256)
    ->Arg(720)
    ->Arg(1024)
    ->Arg(1440);

// One polar-filter line at the mesh widths of the workloads and the
// paper: real forward FFT, damping, inverse, through the filter's own
// workspace (nx = 24, 120, 128, 720).
void BM_RealFilterLine(benchmark::State& state) {
  const int nx = static_cast<int>(state.range(0));
  mesh::LatLonMesh mesh(nx, 48, 1);
  const auto levels = mesh::SigmaLevels::uniform(1);
  const state::Stratification strat(levels);
  const mesh::DomainDecomp decomp(mesh, {1, 1, 1}, {0, 0, 0});
  const ops::OpContext ctx{&mesh, &levels, &strat, &decomp,
                           ops::ModelParams{}};
  const ops::FourierFilter filt(ctx);
  std::vector<double> line(static_cast<std::size_t>(nx));
  for (int i = 0; i < nx; ++i)
    line[static_cast<std::size_t>(i)] = std::sin(0.37 * i) + 0.1 * (i % 7);
  for (auto _ : state) {
    filt.filter_line(line, /*sin_theta=*/0.1);
    benchmark::DoNotOptimize(line.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * nx);
}
BENCHMARK(BM_RealFilterLine)->Arg(24)->Arg(120)->Arg(128)->Arg(720);

void BM_SerialStep(benchmark::State& state) {
  core::DycoreConfig c;
  c.nx = 48;
  c.ny = 24;
  c.nz = 8;
  c.M = 3;
  core::SerialCore core(c);
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kZonalJet;
  core.initialize(xi, opt);
  for (auto _ : state) {
    core.step(xi);
    benchmark::DoNotOptimize(xi.u()(0, 0, 0));
  }
}
BENCHMARK(BM_SerialStep);

void BM_TracerAdvection(benchmark::State& state) {
  auto& f = fixture();
  const bool upwind = state.range(0) == 1;
  ops::TracerAdvection adv(f.core.op_context(), f.xi, f.ws.local,
                           f.ws.vert,
                           upwind ? ops::TracerScheme::kUpwindMonotone
                                  : ops::TracerScheme::kSkewSymmetric);
  util::Array3D<double> q(96, 48, 16, f.xi.u().halo());
  util::Array3D<double> dq(96, 48, 16, f.xi.u().halo());
  for (int k = 0; k < 16; ++k)
    for (int j = 0; j < 48; ++j)
      for (int i = 0; i < 96; ++i) q(i, j, k) = std::sin(0.1 * i * j + k);
  ops::fill_tracer_boundaries(f.core.op_context(), q);
  const mesh::Box window{0, 96, 0, 48, 0, 16};
  for (auto _ : state) {
    adv.apply(q, dq, window);
    benchmark::DoNotOptimize(dq(0, 0, 0));
  }
  state.SetItemsProcessed(state.iterations() * 96 * 48 * 16);
}
BENCHMARK(BM_TracerAdvection)->Arg(0)->Arg(1);

void BM_ShallowWaterStep(benchmark::State& state) {
  swe::SweConfig cfg;
  cfg.nx = 96;
  cfg.ny = 48;
  swe::ShallowWaterCore core(cfg);
  auto s = core.make_state();
  core.initialize(s, swe::SweInitial::kGravityWave);
  for (auto _ : state) {
    core.step(s);
    benchmark::DoNotOptimize(s.h(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * 96 * 48);
}
BENCHMARK(BM_ShallowWaterStep);

void BM_RealFftVsComplex(benchmark::State& state) {
  const std::size_t n = 720;
  const bool real = state.range(0) == 1;
  fft::Plan cplan(n);
  fft::RealPlan rplan(n);
  std::vector<double> line(n);
  std::vector<fft::cplx> cbuf(n), spec(n / 2 + 1);
  for (std::size_t i = 0; i < n; ++i)
    line[i] = std::sin(0.01 * static_cast<double>(i));
  for (auto _ : state) {
    if (real) {
      rplan.forward(line, spec);
      rplan.inverse(spec, line);
      benchmark::DoNotOptimize(line[0]);
    } else {
      for (std::size_t i = 0; i < n; ++i) cbuf[i] = fft::cplx{line[i], 0.0};
      cplan.forward(cbuf);
      cplan.inverse(cbuf);
      benchmark::DoNotOptimize(cbuf[0]);
    }
  }
}
BENCHMARK(BM_RealFftVsComplex)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
