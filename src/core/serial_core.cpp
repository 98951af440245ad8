#include "core/serial_core.hpp"

#include "core/exchange.hpp"
#include "ops/adaptation.hpp"
#include "ops/advection.hpp"
#include "ops/smoothing.hpp"

namespace ca::core {

using util::Phase;

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

void SerialCore::tendency(state::State& xi, state::State& tend,
                          bool adaptation) {
  const mesh::Box window = xi.interior();
  obs::Tracer& tr = tracer();
  tr.timed(Phase::kBoundaryFill, [&] { fill_boundaries(xi); });
  tr.timed(Phase::kLocalDiag,
           [&] { ops::compute_local_diag(opctx_, xi, window, ws_); });
  if (adaptation) {
    tr.timed(Phase::kColumn, [&] {
      compute_c(opctx_, nullptr, nullptr, xi, window, ws_,
                config_.z_allreduce);
    });
    tr.timed(Phase::kAdaptation, [&] {
      ops::apply_adaptation(opctx_, xi, ws_.local, ws_.vert, tend, window);
    });
  } else {
    // L~ is a pure stencil operator (paper Section 3): pes/pfac refresh
    // locally, sigma-dot is the field the adaptation process's C produced.
    tr.timed(Phase::kAdvection, [&] {
      ops::apply_advection(opctx_, xi, ws_.local, ws_.vert, tend, window);
    });
  }
  tr.timed(Phase::kFilter, [&] { filter_.apply_local(opctx_, tend, window); });
}

void SerialCore::adaptation_tendency(state::State& xi, state::State& tend) {
  tendency(xi, tend, /*adaptation=*/true);
}

void SerialCore::advection_tendency(state::State& xi, state::State& tend) {
  tendency(xi, tend, /*adaptation=*/false);
}

void SerialCore::step(state::State& xi) {
  if (comm_ctx_ != nullptr) comm_ctx_->notify_step();
  obs::Tracer& tr = tracer();
  obs::Span step_span = tr.phase_span(Phase::kStep);
  const mesh::Box interior = xi.interior();
  const double dt1 = config_.dt_adapt;
  const double dt2 = config_.dt_advect;
  // out = xi + dt * tend_, and mid_ = (xi + eta_) / 2.
  auto update = [&](state::State& out, double dt) {
    tr.timed(Phase::kUpdate, [&] { out.add_scaled(xi, dt, tend_, interior); });
  };
  auto midpoint = [&] {
    tr.timed(Phase::kUpdate, [&] { mid_.average(xi, eta_, interior); });
  };

  // Adaptation process: M nonlinear iterations of 3 internal updates.
  for (int iter = 0; iter < config_.M; ++iter) {
    adaptation_tendency(xi, tend_);
    update(eta_, dt1);  // eta1

    adaptation_tendency(eta_, tend_);
    update(eta_, dt1);  // eta2

    midpoint();
    adaptation_tendency(mid_, tend_);
    update(xi, dt1);  // psi^i = eta3
  }

  // Advection process: one nonlinear iteration.
  advection_tendency(xi, tend_);
  update(eta_, dt2);  // zeta1

  advection_tendency(eta_, tend_);
  update(eta_, dt2);  // zeta2

  midpoint();
  advection_tendency(mid_, tend_);
  update(xi, dt2);  // zeta3

  // Smoothing.
  tr.timed(Phase::kBoundaryFill, [&] { fill_boundaries(xi); });
  tr.timed(Phase::kSmoothing, [&] {
    ops::apply_smoothing(opctx_, xi, eta_, interior);
    xi.assign(eta_, interior);
  });
  tr.timed(Phase::kBoundaryFill, [&] { fill_boundaries(xi); });
}

void SerialCore::run(state::State& xi, int n) {
  for (int s = 0; s < n; ++s) step(xi);
}

}  // namespace ca::core
