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
      opctx_{&mesh_, &levels_, &strat_, &decomp_, config.params},
      filter_(opctx_),
      ws_(decomp_.lnx(), decomp_.lny(), decomp_.lnz(),
          halos_for_depth(3 * config.M)),
      exchanger_(ctx, topo_),
      tend_(make_state()),
      eta_(make_state()),
      mid_(make_state()),
      pre_(make_state()) {
  if (dims[0] != 1)
    throw std::invalid_argument("CACore requires the Y-Z scheme (px == 1)");
  if (config.M < 2)
    throw std::invalid_argument("CACore requires M >= 2");
  if (dims[1] > 1 && decomp_.lny() < 3 * config.M + 1)
    throw std::invalid_argument(
        "CACore: ny/py too small for the 3M-deep y halos");
  if (dims[2] > 1 && decomp_.lnz() < 3)
    throw std::invalid_argument(
        "CACore: nz/pz too small for the advection z halos (need >= 3)");
}

state::State CACore::make_state() const {
  return state::State(decomp_.lnx(), decomp_.lny(), decomp_.lnz(),
                      halos_for_depth(3 * config_.M));
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

/// The CA carry is written in the self-describing reshardable layout of
/// util::kReshardableCarryMagic ("CACARRY" + format version 2): each
/// field travels with its global extents, halo depths, and block origin
/// so util::reshard_checkpoints can redistribute the set across a new
/// Y-Z decomposition without knowing this core.  These helpers emit and
/// validate the 13-word geometry prefix of one field.

void put_field_geom(util::CarryWriter& w, bool is3d,
                    std::array<std::uint64_t, 3> gn,
                    std::array<std::uint64_t, 3> ln,
                    std::array<std::uint64_t, 3> halo,
                    std::array<std::uint64_t, 3> origin) {
  w.put_u64(is3d ? 1 : 0);
  for (const auto& trio : {gn, ln, halo, origin})
    for (std::uint64_t v : trio) w.put_u64(v);
}

void expect_field_geom(util::CarryReader& r, bool is3d,
                       std::array<std::uint64_t, 3> gn,
                       std::array<std::uint64_t, 3> ln,
                       std::array<std::uint64_t, 3> halo,
                       std::array<std::uint64_t, 3> origin) {
  bool ok = r.get_u64() == (is3d ? 1u : 0u);
  for (const auto& trio : {gn, ln, halo, origin})
    for (std::uint64_t v : trio) ok = r.get_u64() == v && ok;
  if (!ok)
    throw std::runtime_error(
        "CA carry field geometry does not match this core's block "
        "(carry written by a differently-configured or differently-"
        "decomposed core?)");
}

std::array<std::uint64_t, 3> u3(int a, int b, int c) {
  return {static_cast<std::uint64_t>(a), static_cast<std::uint64_t>(b),
          static_cast<std::uint64_t>(c)};
}

}  // namespace

void CACore::save_carry(util::CarryWriter& w) const {
  w.put_u64(util::kReshardableCarryMagic);
  // Minimum legal block extents under a split dimension — the
  // constructor's own guards, declared so a reshard to an
  // unrepresentable shape fails loudly inside util::.
  w.put_u64(static_cast<std::uint64_t>(3 * config_.M + 1));
  w.put_u64(3);
  w.put_u64(2);  // scalars
  w.put_i64(step_count_);
  w.put_i64(have_stale_c_ ? 1 : 0);
  const auto f3 = ws_.carry_fields_3d();
  const auto f2 = ws_.carry_fields_2d();
  w.put_u64(f3.size() + f2.size() + 2);
  const std::array<std::uint64_t, 3> gn3 =
      u3(mesh_.nx(), mesh_.ny(), mesh_.nz());
  const std::array<std::uint64_t, 3> gn2 = u3(mesh_.nx(), mesh_.ny(), 1);
  const std::array<std::uint64_t, 3> o3 =
      u3(decomp_.xr().begin, decomp_.yr().begin, decomp_.zr().begin);
  const std::array<std::uint64_t, 3> o2 =
      u3(decomp_.xr().begin, decomp_.yr().begin, 0);
  for (const auto* f : f3) {
    put_field_geom(w, true, gn3, u3(f->nx(), f->ny(), f->nz()),
                   u3(f->halo().x, f->halo().y, f->halo().z), o3);
    w.put_doubles(f->raw());
  }
  for (const auto* f : f2) {
    put_field_geom(w, false, gn2, u3(f->nx(), f->ny(), 1),
                   u3(f->hx(), f->hy(), 0), o2);
    w.put_doubles(f->raw());
  }
  const auto& pphi = pre_.phi();
  put_field_geom(w, true, gn3, u3(pphi.nx(), pphi.ny(), pphi.nz()),
                 u3(pphi.halo().x, pphi.halo().y, pphi.halo().z), o3);
  w.put_doubles(pphi.raw());
  const auto& ppsa = pre_.psa();
  put_field_geom(w, false, gn2, u3(ppsa.nx(), ppsa.ny(), 1),
                 u3(ppsa.hx(), ppsa.hy(), 0), o2);
  w.put_doubles(ppsa.raw());
}

void CACore::restore_carry(util::CarryReader& r) {
  if (r.get_u64() != util::kReshardableCarryMagic)
    throw std::runtime_error(
        "checkpoint carry block is not a CA-core carry (wrong magic/"
        "version)");
  if (r.get_u64() != static_cast<std::uint64_t>(3 * config_.M + 1) ||
      r.get_u64() != 3)
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
  const auto f3 = ws_.carry_fields_3d();
  const auto f2 = ws_.carry_fields_2d();
  if (r.get_u64() != f3.size() + f2.size() + 2)
    throw std::runtime_error("CA carry has a malformed field count");
  // Full raw spans (halos included): the resumed step's overlapped inner
  // update and its outgoing exchange rows read these arrays before any
  // exchange refreshes them.  The geometry prefix pins every field to
  // this core's exact block, and get_doubles rejects any size mismatch.
  const std::array<std::uint64_t, 3> gn3 =
      u3(mesh_.nx(), mesh_.ny(), mesh_.nz());
  const std::array<std::uint64_t, 3> gn2 = u3(mesh_.nx(), mesh_.ny(), 1);
  const std::array<std::uint64_t, 3> o3 =
      u3(decomp_.xr().begin, decomp_.yr().begin, decomp_.zr().begin);
  const std::array<std::uint64_t, 3> o2 =
      u3(decomp_.xr().begin, decomp_.yr().begin, 0);
  for (auto* f : f3) {
    expect_field_geom(r, true, gn3, u3(f->nx(), f->ny(), f->nz()),
                      u3(f->halo().x, f->halo().y, f->halo().z), o3);
    r.get_doubles(f->raw());
  }
  for (auto* f : f2) {
    expect_field_geom(r, false, gn2, u3(f->nx(), f->ny(), 1),
                      u3(f->hx(), f->hy(), 0), o2);
    r.get_doubles(f->raw());
  }
  auto& pphi = pre_.phi();
  expect_field_geom(r, true, gn3, u3(pphi.nx(), pphi.ny(), pphi.nz()),
                    u3(pphi.halo().x, pphi.halo().y, pphi.halo().z), o3);
  r.get_doubles(pphi.raw());
  auto& ppsa = pre_.psa();
  expect_field_geom(r, false, gn2, u3(ppsa.nx(), ppsa.ny(), 1),
                    u3(ppsa.hx(), ppsa.hy(), 0), o2);
  r.get_doubles(ppsa.raw());
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
