#include "core/original_core.hpp"

#include <stdexcept>

#include "ops/adaptation.hpp"
#include "ops/advection.hpp"

namespace ca::core {
OriginalCore::OriginalCore(const DycoreConfig& config, comm::Context& ctx,
                           DecompScheme scheme, std::array<int, 3> dims)
    : config_(config),
      scheme_(scheme),
      comm_ctx_(&ctx),
      mesh_(config.nx, config.ny, config.nz),
      levels_(make_levels(config)),
      strat_(levels_),
      topo_(comm::make_cart(ctx, ctx.world(), dims,
                            {/*x periodic=*/true, false, false})),
      decomp_(mesh_, dims, topo_.coords),
      opctx_{&mesh_, &levels_, &strat_, &decomp_, config.params},
      filter_(opctx_),
      ws_(decomp_.lnx(), decomp_.lny(), decomp_.lnz(), halos_for_depth(1)),
      exchanger_(ctx, topo_),
      tend_(make_state()),
      eta_(make_state()),
      mid_(make_state()) {
  if (scheme == DecompScheme::kXY && dims[2] != 1)
    throw std::invalid_argument("X-Y scheme requires pz == 1");
  if (scheme == DecompScheme::kYZ && dims[0] != 1)
    throw std::invalid_argument("Y-Z scheme requires px == 1");
  if (dims[0] > 1 && config.nx % dims[0] != 0)
    throw std::invalid_argument(
        "distributed Fourier filtering requires nx divisible by px");
}

state::State OriginalCore::make_state() const {
  return state::State(decomp_.lnx(), decomp_.lny(), decomp_.lnz(),
                      halos_for_depth(1));
}

void OriginalCore::initialize(state::State& xi,
                              const state::InitialOptions& options) {
  state::initialize(xi, mesh_, levels_, strat_, decomp_, options);
  refresh_halos(xi, "init");
}

void OriginalCore::refresh_halos(state::State& s, const std::string& phase) {
  exchanger_.exchange(
      exchange_items(original_halo_items(decomp_), s, nullptr, nullptr),
      phase);
  fill_boundaries(opctx_, s);
}

void OriginalCore::tendency(state::State& psi, const mesh::Box& window,
                            Operator op, bool fresh_c, state::State& tend) {
  const comm::Communicator* line_z =
      decomp_.dims()[2] > 1 ? &topo_.line_z : nullptr;
  compute_diagnostics(opctx_, comm_ctx_, line_z, psi, window, ws_,
                      /*stale_vert=*/!fresh_c, config_.z_allreduce,
                      "collective");
  if (op == Operator::kAdaptation) {
    ops::apply_adaptation(opctx_, psi, ws_.local, ws_.vert, tend, window);
  } else {
    ops::apply_advection(opctx_, psi, ws_.local, ws_.vert, tend, window);
  }
  if (decomp_.owns_full_x()) {
    filter_.apply_local(opctx_, tend, window);
  } else {
    comm_ctx_->stats().set_phase("collective");
    filter_.apply_distributed(opctx_, *comm_ctx_, topo_.line_x, tend,
                              window);
  }
}

void OriginalCore::step(state::State& xi) {
  // Step boundary of the fault-injection layer (kStall faults).
  comm_ctx_->notify_step();
  obs::Span step_span = comm_ctx_->tracer().span("step", "core");
  PlanTarget t{opctx_,  *comm_ctx_,       exchanger_,        ws_,
               xi,      eta_,             mid_,              tend_,
               nullptr, config_.dt_adapt, config_.dt_advect, {}};
  t.tendency = [this](state::State& in, const mesh::Box& w,
                      const PlanEntry& e) {
    tendency(in, w, e.op, e.fresh_c, tend_);
  };
  run_plan(make_original_plan(decomp_, config_.M), t);
}

void OriginalCore::run(state::State& xi, int n) {
  for (int s = 0; s < n; ++s) step(xi);
}

}  // namespace ca::core
