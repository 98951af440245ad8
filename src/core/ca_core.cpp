#include "core/ca_core.hpp"

#include <array>
#include <stdexcept>

#include "ops/adaptation.hpp"
#include "ops/advection.hpp"
#include "ops/smoothing.hpp"
#include "ops/subrange.hpp"
#include "ops/vertical.hpp"

namespace ca::core {
namespace {

mesh::SigmaLevels make_levels(const DycoreConfig& c) {
  return c.stretched_levels ? mesh::SigmaLevels::stretched(c.nz)
                            : mesh::SigmaLevels::uniform(c.nz);
}

}  // namespace


namespace {

/// The exchanged C-product halo rows span the owned x extent; refresh
/// their periodic x halos so x-stencils (phi' at i-2, sigma-dot at i-1)
/// read consistent values at the wrap seam.
void wrap_vert_x(ops::DiagWorkspace& ws) {
  mesh::fill_x_periodic(ws.vert.sdot, ws.vert.sdot.halo().x);
  mesh::fill_x_periodic(ws.vert.w, ws.vert.w.halo().x);
  mesh::fill_x_periodic(ws.vert.phi_geo, ws.vert.phi_geo.halo().x);
  auto& dv = ws.vert.divsum;
  for (int j = -dv.hy(); j < dv.ny() + dv.hy(); ++j)
    for (int dx = 1; dx <= dv.hx(); ++dx) {
      dv(-dx, j) = dv(dv.nx() - dx, j);
      dv(dv.nx() - 1 + dx, j) = dv(dx - 1, j);
    }
}

}  // namespace

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
  fill_boundaries(xi);
  have_stale_c_ = false;
  step_count_ = 0;
}

mesh::Box CACore::extended_window(int ey, int ez) const {
  mesh::Box b{0, decomp_.lnx(), 0, decomp_.lny(), 0, decomp_.lnz()};
  if (!decomp_.at_north_pole()) b.j0 -= ey;
  if (!decomp_.at_south_pole()) b.j1 += ey;
  if (!decomp_.at_model_top()) b.k0 -= ez;
  if (!decomp_.at_surface()) b.k1 += ez;
  return b;
}

void CACore::fill_boundaries(state::State& s) {
  const auto h = s.u().halo();
  apply_physical_boundaries(opctx_, s, h.x, std::max(h.y, s.psa().hy()),
                            h.z);
}

void CACore::eval_tendency(state::State& input, const mesh::Box& window,
                           Operator op, bool fresh_c) {
  // Paper mode: the collective columns cover only the block face; the
  // extended windows' halo rows keep the stale (exchanged) C products.
  const mesh::Box c_window =
      options_.fresh_c_on_block_face
          ? mesh::Box{0, decomp_.lnx(), 0, decomp_.lny(), 0, decomp_.lnz()}
          : window;
  const mesh::Box ring = ops::face_ring(c_window);
  ops::compute_local_diag(opctx_, input, window, ws_);

  if (fresh_c) {
    ops::column_partials(opctx_, input, ring, ws_.local, ws_.own_div,
                         ws_.own_phi);
    if (topo_.line_z.size() > 1) {
      const std::size_t face = static_cast<std::size_t>(ring.i1 - ring.i0) *
                               static_cast<std::size_t>(ring.j1 - ring.j0);
      std::vector<double> own(2 * face), total(2 * face), prefix(2 * face);
      std::size_t idx = 0;
      for (int j = ring.j0; j < ring.j1; ++j)
        for (int i = ring.i0; i < ring.i1; ++i) {
          own[idx] = ws_.own_div(i, j);
          own[idx + face] = ws_.own_phi(i, j);
          ++idx;
        }
      comm_ctx_->stats().set_phase("collective");
      comm::allreduce<double>(*comm_ctx_, topo_.line_z, own, total,
                              comm::ReduceOp::kSum, config_.z_allreduce);
      comm::exscan<double>(*comm_ctx_, topo_.line_z, own, prefix,
                           comm::ReduceOp::kSum);
      idx = 0;
      for (int j = ring.j0; j < ring.j1; ++j)
        for (int i = ring.i0; i < ring.i1; ++i) {
          ws_.total_div(i, j) = total[idx];
          ws_.total_phi(i, j) = total[idx + face];
          ws_.base_div(i, j) = prefix[idx];
          ws_.base_phi(i, j) = prefix[idx + face];
          ++idx;
        }
    } else {
      for (int j = ring.j0; j < ring.j1; ++j)
        for (int i = ring.i0; i < ring.i1; ++i) {
          ws_.total_div(i, j) = ws_.own_div(i, j);
          ws_.total_phi(i, j) = ws_.own_phi(i, j);
          ws_.base_div(i, j) = 0.0;
          ws_.base_phi(i, j) = 0.0;
        }
    }
    ops::column_finish(opctx_, input, ring, ws_.local, ws_.base_div,
                       ws_.total_div, ws_.base_phi, ws_.own_phi,
                       ws_.total_phi, ws_.vert);
    have_stale_c_ = true;
  }
  // Stale evaluations reuse ws_.vert as-is: the last C's products are
  // globally consistent fields that traveled with the deep halo exchange
  // (paper eq. 13's C(psi^{i-2}) replacement).

  if (op == Operator::kAdaptation) {
    ops::apply_adaptation(opctx_, input, ws_.local, ws_.vert, tend_,
                          window);
  } else {
    ops::apply_advection(opctx_, input, ws_.local, ws_.vert, tend_,
                         window);
  }
  filter_.apply_local(opctx_, tend_, window);
}


namespace {

/// The advection operator leaves p'_sa unchanged, but its L2(V) term reads
/// the surface factors one row beyond the update window (pfac at j+2 via
/// the advecting velocity at j+1).  Copy the base state's full psa array
/// (halos included) so the next update's surface factors are valid
/// everywhere they are read.
void carry_psa(const state::State& base, state::State& out) {
  auto src = base.psa().raw();
  auto dst = out.psa().raw();
  std::copy(src.begin(), src.end(), dst.begin());
}

}  // namespace

void CACore::step(state::State& xi) {
  // Step boundary of the fault-injection layer: a scheduled kStall fault
  // pauses this rank here, before the step's exchanges.
  comm_ctx_->notify_step();
  obs::Span step_span = comm_ctx_->tracer().span("step", "core");
  const int M = config_.M;
  const int depth_y = 3 * M + 1;
  const double dt1 = config_.dt_adapt;
  const double dt2 = config_.dt_advect;
  const bool split_north = !decomp_.at_north_pole() && topo_.dims[1] > 1;
  const bool split_south = !decomp_.at_south_pole() && topo_.dims[1] > 1;
  const bool do_smooth = step_count_ > 0;

  // --- former smoothing (S1) ------------------------------------------------
  if (do_smooth) {
    if (options_.fuse_smoothing) {
      pre_.assign(xi, pre_.extended(2, 2, 0));
      ops::apply_smoothing_former(opctx_, xi, xi.interior(), split_north,
                                  split_south);
    } else {
      // Ablation: separate smoothing exchange, as in the original scheme.
      std::vector<ExchangeItem> sitems;
      sitems.push_back({&xi.u(), nullptr, 0, 2, 0});
      sitems.push_back({&xi.v(), nullptr, 0, 2, 0});
      sitems.push_back({&xi.phi(), nullptr, 0, 2, 0});
      sitems.push_back({nullptr, &xi.psa(), 0, 2, 0});
      exchanger_.exchange(sitems, "stencil");
      fill_boundaries(xi);
      ops::apply_smoothing(opctx_, xi, eta_, xi.interior());
      xi.assign(eta_, xi.interior());
    }
    fill_boundaries(xi);
  }

  // --- the ONE adaptation exchange: deep halos + fused smoothing data +
  // the stale column anchors ------------------------------------------------
  std::vector<ExchangeItem> items;
  items.push_back({&xi.u(), nullptr, 0, depth_y, 0});
  items.push_back({&xi.v(), nullptr, 0, depth_y, 0});
  items.push_back({&xi.phi(), nullptr, 0, depth_y, 0});
  items.push_back({nullptr, &xi.psa(), 0, xi.psa().hy(), 0});
  // The C products travel with the state (this is why the paper's xi has
  // "length ten"): the stale evaluations of the approximate iteration and
  // the advection process read them on the extended windows.  The
  // adaptation process has no z-halo reads at all (its vertical coupling
  // routes through C's collectives), so this exchange is y-only.
  items.push_back({nullptr, &ws_.vert.divsum, 0, ws_.vert.divsum.hy(), 0});
  items.push_back({&ws_.vert.sdot, nullptr, 0, depth_y, 0});
  items.push_back({&ws_.vert.w, nullptr, 0, depth_y, 0});
  items.push_back({&ws_.vert.phi_geo, nullptr, 0, depth_y, 0});
  if (do_smooth && options_.fuse_smoothing) {
    // Depth 4: S2 recomputes the +-2 halo rows as complete canonical
    // folds, which read pre-smoothing rows out to +-4.
    items.push_back({&pre_.phi(), nullptr, 0, 4, 0});
    items.push_back({nullptr, &pre_.psa(), 0, 4, 0});
  }
  exchanger_.begin(items, "stencil");

  // --- overlapped inner eta1 (stale C: communication-free) ------------------
  const bool use_approx = options_.approximate_iteration;
  const bool can_overlap = options_.overlap && have_stale_c_ && use_approx;
  mesh::Box inner{0, 0, 0, 0, 0, 0};
  if (can_overlap) {
    inner = mesh::Box{0,
                      decomp_.lnx(),
                      split_north ? 4 : 0,
                      split_south ? decomp_.lny() - 4 : decomp_.lny(),
                      0,
                      decomp_.lnz()};
    if (!inner.empty()) {
      obs::Span sp = comm_ctx_->tracer().span("interior", "compute");
      eval_tendency(xi, inner, Operator::kAdaptation, /*fresh_c=*/false);
      eta_.add_scaled(xi, dt1, tend_, inner);
    }
  }

  exchanger_.finish();
  wrap_vert_x(ws_);

  // --- later smoothing (S2) --------------------------------------------------
  if (do_smooth && options_.fuse_smoothing) {
    // The received pre-smoothing halo rows span the owned x extent only;
    // refresh their periodic x halos before S2's x-quartic reads them.
    mesh::fill_x_periodic(pre_.phi(), 2);
    auto& ppsa = pre_.psa();
    for (int j = -ppsa.hy(); j < ppsa.ny() + ppsa.hy(); ++j)
      for (int dx = 1; dx <= 2; ++dx) {
        ppsa(-dx, j) = ppsa(ppsa.nx() - dx, j);
        ppsa(ppsa.nx() - 1 + dx, j) = ppsa(dx - 1, j);
      }
    ops::apply_smoothing_later(opctx_, pre_, xi, xi.interior(), split_north,
                               split_south);
  }
  fill_boundaries(xi);

  // --- adaptation: M iterations, 3 updates each ------------------------------
  int u = 0;
  for (int iter = 0; iter < M; ++iter) {
    const int e1 = 3 * M - 1 - u;
    const mesh::Box w1 = extended_window(e1, 0);
    const bool fresh1 = !(use_approx && have_stale_c_);
    if (iter == 0 && can_overlap) {
      for (const mesh::Box& b : ops::subtract_box(w1, inner)) {
        eval_tendency(xi, b, Operator::kAdaptation, /*fresh_c=*/false);
        eta_.add_scaled(xi, dt1, tend_, b);
      }
    } else {
      eval_tendency(xi, w1, Operator::kAdaptation, fresh1);
      eta_.add_scaled(xi, dt1, tend_, w1);
    }
    ++u;
    fill_boundaries(eta_);
    if (debug_observer) debug_observer("eta1", eta_);

    const int e2 = 3 * M - 1 - u;
    const mesh::Box w2 = extended_window(e2, 0);
    eval_tendency(eta_, w2, Operator::kAdaptation, /*fresh_c=*/true);
    eta_.add_scaled(xi, dt1, tend_, w2);
    ++u;
    fill_boundaries(eta_);
    if (debug_observer) debug_observer("eta2", eta_);

    const int e3 = 3 * M - 1 - u;
    const mesh::Box w3 = extended_window(e3, 0);
    mid_.average(xi, eta_, w2);
    fill_boundaries(mid_);
    eval_tendency(mid_, w3, Operator::kAdaptation, /*fresh_c=*/true);
    xi.add_scaled(xi, dt1, tend_, w3);
    ++u;
    fill_boundaries(xi);
    if (debug_observer) debug_observer("eta3", xi);
  }

  // --- the ONE advection exchange --------------------------------------------
  std::vector<ExchangeItem> aitems;
  aitems.push_back({&xi.u(), nullptr, 0, 4, 3});
  aitems.push_back({&xi.v(), nullptr, 0, 4, 3});
  aitems.push_back({&xi.phi(), nullptr, 0, 4, 3});
  aitems.push_back({nullptr, &xi.psa(), 0, xi.psa().hy(), 0});
  aitems.push_back({&ws_.vert.sdot, nullptr, 0, 4, 3});
  exchanger_.begin(aitems, "stencil");

  mesh::Box adv_inner{0, 0, 0, 0, 0, 0};
  if (options_.overlap) {
    adv_inner = mesh::Box{0,
                          decomp_.lnx(),
                          split_north ? 4 : 0,
                          split_south ? decomp_.lny() - 4 : decomp_.lny(),
                          decomp_.at_model_top() ? 0 : 2,
                          decomp_.at_surface() ? decomp_.lnz()
                                               : decomp_.lnz() - 2};
    if (!adv_inner.empty()) {
      obs::Span sp = comm_ctx_->tracer().span("interior", "compute");
      eval_tendency(xi, adv_inner, Operator::kAdvection, false);
      eta_.add_scaled(xi, dt2, tend_, adv_inner);
    }
  }
  const mesh::Box aw1 = extended_window(2, 2);
  exchanger_.finish();
  wrap_vert_x(ws_);
  fill_boundaries(xi);
  if (options_.overlap) {
    for (const mesh::Box& b : ops::subtract_box(aw1, adv_inner)) {
      eval_tendency(xi, b, Operator::kAdvection, false);
      eta_.add_scaled(xi, dt2, tend_, b);
    }
  } else {
    eval_tendency(xi, aw1, Operator::kAdvection, false);
    eta_.add_scaled(xi, dt2, tend_, aw1);
  }
  carry_psa(xi, eta_);
  fill_boundaries(eta_);
  if (debug_observer) debug_observer("zeta1", eta_);

  const mesh::Box aw2 = extended_window(1, 1);
  eval_tendency(eta_, aw2, Operator::kAdvection, false);
  eta_.add_scaled(xi, dt2, tend_, aw2);
  carry_psa(xi, eta_);
  fill_boundaries(eta_);
  if (debug_observer) debug_observer("zeta2", eta_);

  const mesh::Box aw3 = extended_window(0, 0);
  mid_.average(xi, eta_, aw2);
  carry_psa(xi, mid_);
  fill_boundaries(mid_);
  eval_tendency(mid_, aw3, Operator::kAdvection, false);
  xi.add_scaled(xi, dt2, tend_, aw3);
  fill_boundaries(xi);
  if (debug_observer) debug_observer("zeta3", xi);

  ++step_count_;
}

void CACore::run(state::State& xi, int n) {
  for (int s = 0; s < n; ++s) step(xi);
  finalize(xi);
}

void CACore::refresh_halos(state::State& s, const std::string& /*phase*/) {
  fill_boundaries(s);
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
  std::vector<ExchangeItem> sitems;
  sitems.push_back({&xi.u(), nullptr, 0, 2, 0});
  sitems.push_back({&xi.v(), nullptr, 0, 2, 0});
  sitems.push_back({&xi.phi(), nullptr, 0, 2, 0});
  sitems.push_back({nullptr, &xi.psa(), 0, 2, 0});
  exchanger_.exchange(sitems, "stencil");
  fill_boundaries(xi);
  ops::apply_smoothing(opctx_, xi, eta_, xi.interior());
  xi.assign(eta_, xi.interior());
  fill_boundaries(xi);
  step_count_ = 0;
  have_stale_c_ = false;
}

}  // namespace ca::core
