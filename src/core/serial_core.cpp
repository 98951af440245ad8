#include "core/serial_core.hpp"

#include "core/exchange.hpp"
#include "ops/adaptation.hpp"
#include "ops/advection.hpp"
#include "ops/smoothing.hpp"

namespace ca::core {
SerialCore::SerialCore(const DycoreConfig& config, comm::Context* comm_ctx)
    : config_(config),
      comm_ctx_(comm_ctx),
      mesh_(config.nx, config.ny, config.nz),
      levels_(make_levels(config)),
      strat_(levels_),
      decomp_(mesh_, {1, 1, 1}, {0, 0, 0}),
      opctx_{&mesh_, &levels_, &strat_, &decomp_, config.params},
      filter_(opctx_),
      ws_(config.nx, config.ny, config.nz, halos_for_depth(1)),
      tend_(make_state()),
      eta_(make_state()),
      mid_(make_state()) {}

state::State SerialCore::make_state() const {
  return state::State(config_.nx, config_.ny, config_.nz,
                      halos_for_depth(1));
}

void SerialCore::initialize(state::State& xi,
                            const state::InitialOptions& options) {
  state::initialize(xi, mesh_, levels_, strat_, decomp_, options);
  fill_boundaries(xi);
}

void SerialCore::fill_boundaries(state::State& s) const {
  apply_physical_boundaries(opctx_, s, s.u().halo().x, s.u().halo().y,
                            s.u().halo().z);
}

void SerialCore::adaptation_tendency(state::State& xi, state::State& tend) {
  const mesh::Box window = xi.interior();
  fill_boundaries(xi);
  compute_diagnostics(opctx_, nullptr, nullptr, xi, window, ws_,
                      /*stale_vert=*/false, config_.z_allreduce, "serial");
  ops::apply_adaptation(opctx_, xi, ws_.local, ws_.vert, tend, window);
  filter_.apply_local(opctx_, tend, window);
}

void SerialCore::advection_tendency(state::State& xi, state::State& tend) {
  const mesh::Box window = xi.interior();
  // L~ is a pure stencil operator (paper Section 3): pes/pfac refresh
  // locally, sigma-dot is the field the adaptation process's C produced.
  fill_boundaries(xi);
  compute_diagnostics(opctx_, nullptr, nullptr, xi, window, ws_,
                      /*stale_vert=*/true, config_.z_allreduce, "serial");
  ops::apply_advection(opctx_, xi, ws_.local, ws_.vert, tend, window);
  filter_.apply_local(opctx_, tend, window);
}

void SerialCore::step(state::State& xi) {
  obs::Span step_span;
  if (comm_ctx_ != nullptr) {
    comm_ctx_->notify_step();
    step_span = comm_ctx_->tracer().span("step", "core");
  }
  const mesh::Box interior = xi.interior();
  const double dt1 = config_.dt_adapt;
  const double dt2 = config_.dt_advect;

  // Adaptation process: M nonlinear iterations of 3 internal updates.
  for (int iter = 0; iter < config_.M; ++iter) {
    adaptation_tendency(xi, tend_);
    eta_.add_scaled(xi, dt1, tend_, interior);  // eta1

    adaptation_tendency(eta_, tend_);
    eta_.add_scaled(xi, dt1, tend_, interior);  // eta2

    mid_.average(xi, eta_, interior);
    adaptation_tendency(mid_, tend_);
    xi.add_scaled(xi, dt1, tend_, interior);  // psi^i = eta3
  }

  // Advection process: one nonlinear iteration.
  advection_tendency(xi, tend_);
  eta_.add_scaled(xi, dt2, tend_, interior);  // zeta1

  advection_tendency(eta_, tend_);
  eta_.add_scaled(xi, dt2, tend_, interior);  // zeta2

  mid_.average(xi, eta_, interior);
  advection_tendency(mid_, tend_);
  xi.add_scaled(xi, dt2, tend_, interior);  // zeta3

  // Smoothing.
  fill_boundaries(xi);
  ops::apply_smoothing(opctx_, xi, eta_, interior);
  xi.assign(eta_, interior);
  fill_boundaries(xi);
}

void SerialCore::run(state::State& xi, int n) {
  for (int s = 0; s < n; ++s) step(xi);
}

}  // namespace ca::core
