#include "core/ca_core.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace ca::core {
CACore::CACore(const DycoreConfig& config, comm::Context& ctx,
               std::array<int, 3> dims, const CAOptions& options)
    : config_(config),
      options_(options),
      comm_ctx_(&ctx),
      mesh_(config.nx, config.ny, config.nz),
      levels_(make_levels(config)),
      strat_(levels_),
      topo_(comm::make_cart(ctx, ctx.world(), dims, {true, false, false})),
      decomp_(mesh_, dims, topo_.coords),
      layout_(ca_layout(decomp_, config.M, options)),
      opctx_{&mesh_, &levels_, &strat_, &decomp_, config.params},
      filter_(opctx_),
      ws_(decomp_.lnx(), decomp_.lny(), decomp_.lnz(), layout_.state),
      exchanger_(ctx, topo_),
      tend_(make_state()),
      eta_(make_state()),
      mid_(make_state()),
      pre_(decomp_.lnx(), decomp_.lny(), decomp_.lnz(), layout_.pre) {
  if (dims[0] != 1)
    throw std::invalid_argument("CACore requires the Y-Z scheme (px == 1)");
  if (config.M < 2)
    throw std::invalid_argument("CACore requires M >= 2");
  if (dims[1] > 1 && decomp_.lny() < layout_.min_lny())
    throw std::invalid_argument(
        "CACore: ny/py too small for the deep y halos (need >= 3M + 1)");
  if (dims[2] > 1 && decomp_.lnz() < layout_.min_lnz())
    throw std::invalid_argument(
        "CACore: nz/pz too small for the advection z halos (need >= 3)");
}

state::State CACore::make_state() const {
  return state::State(decomp_.lnx(), decomp_.lny(), decomp_.lnz(),
                      layout_.state);
}

void CACore::initialize(state::State& xi,
                        const state::InitialOptions& options) {
  state::initialize(xi, mesh_, levels_, strat_, decomp_, options);
  fill_boundaries(opctx_, xi);
  have_stale_c_ = false;
  step_count_ = 0;
}

void CACore::execute(const StepPlan& plan, state::State& xi) {
  PlanTarget t{config_, opctx_, *comm_ctx_, topo_, exchanger_, filter_,
               ws_,     xi,     eta_,       mid_,  tend_,      &pre_};
  run_plan(plan, t);
}

void CACore::step(state::State& xi) {
  // Step boundary of the fault-injection layer: a scheduled kStall fault
  // pauses this rank here, before the step's exchanges.
  comm_ctx_->notify_step();
  obs::Span step_span = comm_ctx_->tracer().phase_span(util::Phase::kStep);
  const StepPlan plan = make_ca_plan(decomp_, config_.M, options_,
                                     step_count_ > 0, have_stale_c_);
  // A fresh C leaves the products later stale evaluations reuse.
  have_stale_c_ = have_stale_c_ ||
                  std::any_of(plan.begin(), plan.end(),
                              [](const PlanEntry& e) { return e.fresh_c; });
  execute(plan, xi);
  ++step_count_;
}

void CACore::run(state::State& xi, int n) {
  for (int s = 0; s < n; ++s) step(xi);
  finalize(xi);
}

void CACore::refresh_halos(state::State& s) {
  fill_boundaries(opctx_, s);
}

namespace {

/// The carried arrays in on-disk order: the stale C products the
/// approximate iteration reuses.  `ws` is const when saving and mutable
/// when restoring.
template <typename Workspace, typename Visit>
void for_each_carried(Workspace& ws, Visit&& visit) {
  visit(ws.vert.sdot);
  visit(ws.vert.w);
  visit(ws.vert.phi_geo);
  visit(ws.vert.divsum);
}

/// The 13-word geometry prefix of one carried field in the reshardable
/// layout (util::kReshardableCarryMagic).
std::array<int, 13> geometry(const mesh::LatLonMesh& m,
                             const mesh::DomainDecomp& d,
                             const util::Array3D<double>& f) {
  const util::Halo3 h = f.halo();
  return {1,   m.nx(), m.ny(), m.nz(), f.nx(), f.ny(), f.nz(),
          h.x, h.y,    h.z,    d.xr().begin, d.yr().begin, d.zr().begin};
}

std::array<int, 13> geometry(const mesh::LatLonMesh& m,
                             const mesh::DomainDecomp& d,
                             const util::Array2D<double>& f) {
  return {0,      m.nx(), m.ny(), 1, f.nx(), f.ny(), 1,
          f.hx(), f.hy(), 0,      d.xr().begin, d.yr().begin, 0};
}

}  // namespace

void CACore::save_carry(util::CarryWriter& w) const {
  w.put_u64(util::kReshardableCarryMagic);
  // Minimum legal block extents under a split dimension (the
  // constructor's own guards), declared so a reshard to an
  // unrepresentable shape fails loudly inside util::.
  w.put_u64(static_cast<std::uint64_t>(layout_.min_lny()));
  w.put_u64(static_cast<std::uint64_t>(layout_.min_lnz()));
  w.put_u64(2);  // scalars
  w.put_i64(step_count_);
  w.put_i64(have_stale_c_ ? 1 : 0);
  std::uint64_t fields = 0;
  for_each_carried(ws_, [&](const auto&) { ++fields; });
  w.put_u64(fields);
  for_each_carried(ws_, [&](const auto& f) {
    for (int v : geometry(mesh_, decomp_, f))
      w.put_u64(static_cast<std::uint64_t>(v));
    w.put_doubles(f.raw());
  });
}

void CACore::restore_carry(util::CarryReader& r) {
  if (r.get_u64() != util::kReshardableCarryMagic)
    throw std::runtime_error(
        "checkpoint carry block is not a CA-core carry (wrong magic/"
        "version)");
  if (r.get_u64() != static_cast<std::uint64_t>(layout_.min_lny()) ||
      r.get_u64() != static_cast<std::uint64_t>(layout_.min_lnz()))
    throw std::runtime_error(
        "CA carry declares different minimum block extents (written by a "
        "differently-configured core?)");
  if (r.get_u64() != 2)
    throw std::runtime_error("CA carry has a malformed scalar count");
  const std::int64_t steps = r.get_i64();
  if (steps < 0)
    throw std::runtime_error("CA carry records a negative step count");
  const std::int64_t stale = r.get_i64();
  if (stale < 0 || stale > 1)
    throw std::runtime_error("CA carry has a malformed stale-C flag");
  std::uint64_t fields = 0;
  for_each_carried(ws_, [&](const auto&) { ++fields; });
  if (r.get_u64() != fields)
    throw std::runtime_error("CA carry has a malformed field count");
  // Full raw spans (halos included): the resumed step's overlapped inner
  // update and its outgoing exchange rows read these arrays before any
  // exchange refreshes them.  The geometry prefix pins every field to
  // this core's exact block, and get_doubles rejects any size mismatch.
  for_each_carried(ws_, [&](auto& f) {
    bool ok = true;
    for (int v : geometry(mesh_, decomp_, f))
      ok = r.get_u64() == static_cast<std::uint64_t>(v) && ok;
    if (!ok)
      throw std::runtime_error(
          "CA carry field geometry does not match this core's block "
          "(carry written by a differently-configured or differently-"
          "decomposed core?)");
    r.get_doubles(f.raw());
  });
  r.expect_end();
  step_count_ = static_cast<int>(steps);
  have_stale_c_ = stale == 1;
}

void CACore::finalize(state::State& xi) {
  if (step_count_ == 0) return;
  // The last step's smoothing is still pending (Algorithm 2 line 30).
  execute(make_ca_finalize_plan(), xi);
  step_count_ = 0;
  have_stale_c_ = false;
}

}  // namespace ca::core
