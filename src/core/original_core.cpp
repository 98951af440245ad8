#include "core/original_core.hpp"

#include <stdexcept>

#include "ops/adaptation.hpp"
#include "ops/advection.hpp"
#include "ops/smoothing.hpp"

namespace ca::core {
namespace {

mesh::SigmaLevels make_levels(const DycoreConfig& c) {
  return c.stretched_levels ? mesh::SigmaLevels::stretched(c.nz)
                            : mesh::SigmaLevels::uniform(c.nz);
}

std::array<int, 3> my_coords(const comm::CartTopology& topo) {
  return topo.coords;
}

}  // namespace

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
      decomp_(mesh_, dims, my_coords(topo_)),
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

std::vector<ExchangeItem> OriginalCore::halo_items(state::State& s) const {
  const auto h = s.u().halo();
  std::vector<ExchangeItem> items;
  const int wx = decomp_.owns_full_x() ? 0 : h.x;
  items.push_back({&s.u(), nullptr, wx, h.y, h.z});
  items.push_back({&s.v(), nullptr, wx, h.y, h.z});
  items.push_back({&s.phi(), nullptr, wx, h.y, h.z});
  const int wx2 = decomp_.owns_full_x() ? 0 : s.psa().hx();
  items.push_back({nullptr, &s.psa(), wx2, s.psa().hy(), 0});
  return items;
}

void OriginalCore::refresh_halos(state::State& s, const std::string& phase) {
  exchanger_.exchange(halo_items(s), phase);
  const auto h = s.u().halo();
  apply_physical_boundaries(opctx_, s, h.x, std::max(h.y, s.psa().hy()),
                            h.z);
}

void OriginalCore::apply_filter(state::State& tend, const mesh::Box& window) {
  if (decomp_.owns_full_x()) {
    filter_.apply_local(opctx_, tend, window);
  } else {
    comm_ctx_->stats().set_phase("collective");
    filter_.apply_distributed(opctx_, *comm_ctx_, topo_.line_x, tend,
                              window);
  }
}

void OriginalCore::adaptation_tendency(state::State& psi,
                                       state::State& tend) {
  const mesh::Box window = psi.interior();
  const comm::Communicator* line_z =
      decomp_.dims()[2] > 1 ? &topo_.line_z : nullptr;
  refresh_halos(psi, "stencil");
  compute_diagnostics(opctx_, comm_ctx_, line_z, psi, window, ws_,
                      /*stale_vert=*/false, config_.z_allreduce,
                      "collective");
  ops::apply_adaptation(opctx_, psi, ws_.local, ws_.vert, tend, window);
  apply_filter(tend, window);
}

void OriginalCore::advection_tendency(state::State& psi,
                                      state::State& tend) {
  const mesh::Box window = psi.interior();
  // L~ is a pure stencil operator: pes/pfac/div refresh locally and the
  // sigma-dot field is re-derived from the adaptation C's column anchors
  // without communication.
  refresh_halos(psi, "stencil");
  compute_diagnostics(opctx_, comm_ctx_, nullptr, psi, window, ws_,
                      /*stale_vert=*/true, config_.z_allreduce,
                      "collective");
  ops::apply_advection(opctx_, psi, ws_.local, ws_.vert, tend, window);
  apply_filter(tend, window);
}

void OriginalCore::step(state::State& xi) {
  // Step boundary of the fault-injection layer (kStall faults).
  comm_ctx_->notify_step();
  obs::Span step_span = comm_ctx_->tracer().span("step", "core");
  const mesh::Box interior = xi.interior();
  const double dt1 = config_.dt_adapt;
  const double dt2 = config_.dt_advect;

  for (int iter = 0; iter < config_.M; ++iter) {
    adaptation_tendency(xi, tend_);
    eta_.add_scaled(xi, dt1, tend_, interior);

    adaptation_tendency(eta_, tend_);
    eta_.add_scaled(xi, dt1, tend_, interior);

    mid_.average(xi, eta_, interior);
    adaptation_tendency(mid_, tend_);
    xi.add_scaled(xi, dt1, tend_, interior);
  }

  advection_tendency(xi, tend_);
  eta_.add_scaled(xi, dt2, tend_, interior);

  advection_tendency(eta_, tend_);
  eta_.add_scaled(xi, dt2, tend_, interior);

  mid_.average(xi, eta_, interior);
  advection_tendency(mid_, tend_);
  xi.add_scaled(xi, dt2, tend_, interior);

  // Smoothing: one more exchange for the +-2 stencil.
  refresh_halos(xi, "stencil");
  ops::apply_smoothing(opctx_, xi, eta_, interior);
  xi.assign(eta_, interior);
}

void OriginalCore::run(state::State& xi, int n) {
  for (int s = 0; s < n; ++s) step(xi);
}

}  // namespace ca::core
