#include "core/original_core.hpp"

#include <stdexcept>

namespace ca::core {
OriginalCore::OriginalCore(const DycoreConfig& config, comm::Context& ctx,
                           DecompScheme scheme, std::array<int, 3> dims)
    : config_(config),
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
  refresh_halos(xi);
}

void OriginalCore::refresh_halos(state::State& s) {
  exchanger_.exchange(
      exchange_items(original_halo_items(decomp_), s, nullptr, nullptr));
  fill_boundaries(opctx_, s);
}

void OriginalCore::step(state::State& xi) {
  // Step boundary of the fault-injection layer (kStall faults).
  comm_ctx_->notify_step();
  obs::Span step_span = comm_ctx_->tracer().phase_span(util::Phase::kStep);
  PlanTarget t{config_, opctx_, *comm_ctx_, topo_, exchanger_, filter_,
               ws_,     xi,     eta_,       mid_,  tend_,      nullptr};
  run_plan(make_original_plan(decomp_, config_.M), t);
}

void OriginalCore::run(state::State& xi, int n) {
  for (int s = 0; s < n; ++s) step(xi);
}

}  // namespace ca::core
