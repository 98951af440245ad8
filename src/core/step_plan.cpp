#include "core/step_plan.hpp"

#include <algorithm>
#include <initializer_list>

#include "ops/adaptation.hpp"
#include "ops/advection.hpp"
#include "ops/smoothing.hpp"
#include "ops/subrange.hpp"

namespace ca::core {

using util::Phase;

namespace {

PlanEntry begin(Slot state, std::vector<PlanItem> items) {
  PlanEntry e;
  e.kind = PlanEntry::Kind::kExchangeBegin;
  e.state = state;
  e.items = std::move(items);
  return e;
}

PlanEntry finish(bool fill) {
  PlanEntry e;
  e.kind = PlanEntry::Kind::kExchangeFinish;
  e.fill = fill;
  return e;
}

PlanEntry update(Operator op, int stage, std::vector<mesh::Box> windows,
                 bool fill) {
  PlanEntry e;
  e.kind = PlanEntry::Kind::kUpdate;
  e.op = op;
  e.stage = stage;
  e.windows = std::move(windows);
  e.fill = fill;
  return e;
}

PlanEntry fresh(PlanEntry e, const mesh::Box& c_window) {
  e.fresh_c = true;
  e.c_window = c_window;
  return e;
}

PlanEntry smooth(Smoothing s, bool fill) {
  PlanEntry e;
  e.kind = PlanEntry::Kind::kSmooth;
  e.smoothing = s;
  e.fill = fill;
  return e;
}

/// The separate +-2 smoothing exchange and the whole smoothing.
void append_full_smoothing(StepPlan& plan, bool fill) {
  plan.push_back(begin(Slot::kXi, {{FieldId::kU, 0, 2, 0},
                                   {FieldId::kV, 0, 2, 0},
                                   {FieldId::kPhi, 0, 2, 0},
                                   {FieldId::kPsa, 0, 2, 0}}));
  plan.push_back(finish(/*fill=*/true));
  plan.push_back(smooth(Smoothing::kFull, fill));
}

/// The block minus 4 rows toward each y neighbor and `zmargin` layers
/// toward each z neighbor: the part of an update whose reads stay inside
/// owned cells, so it can run while the exchange is in flight.
mesh::Box inner_block(const mesh::DomainDecomp& d, int zmargin) {
  return mesh::Box{0,
                   d.lnx(),
                   d.at_north_pole() ? 0 : 4,
                   d.at_south_pole() ? d.lny() : d.lny() - 4,
                   d.at_model_top() ? 0 : zmargin,
                   d.at_surface() ? d.lnz() : d.lnz() - zmargin};
}

/// The exchanged C-product halo rows span the owned x extent; refresh
/// their periodic x halos so x-stencils (phi' at i-2, sigma-dot at i-1)
/// read consistent values at the wrap seam.
void wrap_vert_x(ops::DiagWorkspace& ws) {
  mesh::fill_x_periodic(ws.vert.sdot, ws.vert.sdot.halo().x);
  mesh::fill_x_periodic(ws.vert.w, ws.vert.w.halo().x);
  mesh::fill_x_periodic(ws.vert.phi_geo, ws.vert.phi_geo.halo().x);
  mesh::fill_x_periodic(ws.vert.divsum, ws.vert.divsum.hx());
}

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

/// The halo the arrays of `group` need under `plan`: per axis, the widest
/// width any exchange item gives a field of the group (3-D fields set h3,
/// 2-D fields hy2; 2-D items have no z width).  No item carries an x
/// width under Y-Z, so x keeps the stencils' periodic reach of 3.
state::StateHalo plan_halo(const StepPlan& plan,
                           std::initializer_list<FieldId> group) {
  state::StateHalo h{{3, 0, 0}, 3, 0};
  for (const PlanEntry& e : plan)
    for (const PlanItem& it : e.items)
      if (std::find(group.begin(), group.end(), it.field) != group.end()) {
        int& y = footprint(it).is2d ? h.hy2 : h.h3.y;
        y = std::max(y, it.wy);
        h.h3.z = std::max(h.h3.z, it.wz);
      }
  return h;
}

bool is_c_product(FieldId f) {
  return f == FieldId::kDivsum || f == FieldId::kSdot || f == FieldId::kW ||
         f == FieldId::kPhiGeo;
}

/// tend = F op(in) on `window`: the local diagnostics, C on e.c_window
/// when fresh, the operator, then the filter (local when the rank owns
/// full x lines, distributed along line_x otherwise).  Stale evaluations
/// reuse ws.vert as-is: the last C's products are globally consistent
/// fields that traveled with the exchange (eq. 13's C(psi^{i-2})).
void evaluate_tendency(PlanTarget& t, state::State& in,
                       const mesh::Box& window, const PlanEntry& e) {
  obs::Tracer& tr = t.comm.tracer();
  tr.timed(Phase::kLocalDiag,
           [&] { ops::compute_local_diag(t.op, in, window, t.ws); });
  if (e.fresh_c)
    tr.timed(Phase::kColumn, [&] {
      compute_c(t.op, &t.comm, &t.topo.line_z, in, e.c_window, t.ws,
                t.config.z_allreduce);
    });
  if (e.op == Operator::kAdaptation)
    tr.timed(Phase::kAdaptation, [&] {
      ops::apply_adaptation(t.op, in, t.ws.local, t.ws.vert, t.tend, window);
    });
  else
    tr.timed(Phase::kAdvection, [&] {
      ops::apply_advection(t.op, in, t.ws.local, t.ws.vert, t.tend, window);
    });
  obs::Span span = tr.phase_span(Phase::kFilter);
  if (t.op.decomp->owns_full_x()) {
    t.filter.apply_local(t.op, t.tend, window);
  } else {
    t.comm.stats().set_phase(Phase::kCollective);
    t.filter.apply_distributed(t.op, t.comm, t.topo.line_x, t.tend, window);
  }
}

}  // namespace

HaloFootprint footprint(const PlanItem& item) {
  const bool is2d = item.field == FieldId::kPsa ||
                    item.field == FieldId::kDivsum ||
                    item.field == FieldId::kPrePsa;
  return {item.wx, item.wy, item.wz, is2d};
}

mesh::Box extended_window(const mesh::DomainDecomp& d, int ey, int ez) {
  mesh::Box b{0, d.lnx(), 0, d.lny(), 0, d.lnz()};
  if (!d.at_north_pole()) b.j0 -= ey;
  if (!d.at_south_pole()) b.j1 += ey;
  if (!d.at_model_top()) b.k0 -= ez;
  if (!d.at_surface()) b.k1 += ez;
  return b;
}

StepPlan make_ca_plan(const mesh::DomainDecomp& d, int M,
                      const CAOptions& o, bool smoothing_pending,
                      bool stale_c) {
  StepPlan plan;
  // The deepest adaptation window reaches `reach` rows past the block; the
  // y halo adds C's face ring and the divergence's V read one row beyond
  // it, and p'_sa one row more for the kSurfaceRing-wide surface factors.
  const int reach = 3 * M - 1;
  const int depth_y = reach + 2;
  const int depth_psa = depth_y + 1;
  const bool fused = smoothing_pending && o.fuse_smoothing;
  const mesh::Box block = extended_window(d, 0, 0);
  // Paper mode: the collective columns cover only the block face; the
  // extended windows' halo rows keep the stale (exchanged) C products.
  auto c_window = [&](const mesh::Box& w) {
    return o.fresh_c_on_block_face ? block : w;
  };

  // --- the former smoothing S1, or the separate smoothing exchange ------
  if (fused)
    plan.push_back(smooth(Smoothing::kFormer, /*fill=*/true));
  else if (smoothing_pending)
    append_full_smoothing(plan, /*fill=*/true);

  // --- the ONE adaptation exchange: deep halos; the C products, which
  // travel with the state because the stale evaluations read them on the
  // extended windows (this is why the paper's xi has "length ten"); and,
  // fused, the pre-smoothing rows S2 reads (depth 4: S2 recomputes the +-2
  // halo rows as complete canonical folds).  The adaptation has no z-halo
  // reads (its vertical coupling routes through C's collectives), so the
  // exchange is y-only -------------------------------------------------------
  std::vector<PlanItem> items{{FieldId::kU, 0, depth_y, 0},
                              {FieldId::kV, 0, depth_y, 0},
                              {FieldId::kPhi, 0, depth_y, 0},
                              {FieldId::kPsa, 0, depth_psa, 0},
                              {FieldId::kDivsum, 0, depth_psa, 0},
                              {FieldId::kSdot, 0, depth_y, 0},
                              {FieldId::kW, 0, depth_y, 0},
                              {FieldId::kPhiGeo, 0, depth_y, 0}};
  if (fused) {
    items.push_back({FieldId::kPrePhi, 0, 4, 0});
    items.push_back({FieldId::kPrePsa, 0, 4, 0});
  }
  plan.push_back(begin(Slot::kXi, std::move(items)));

  // The inner eta1 is communication-free with stale C.
  const bool can_overlap = o.overlap && stale_c && o.approximate_iteration;
  const mesh::Box inner = can_overlap ? inner_block(d, 0) : mesh::Box{};
  if (!inner.empty()) {
    plan.push_back(update(Operator::kAdaptation, 1, {inner}, false));
    plan.back().inner = true;
  }
  plan.push_back(finish(/*fill=*/!fused));
  if (fused) plan.push_back(smooth(Smoothing::kLater, /*fill=*/true));

  // --- adaptation: M iterations of 3 updates on shrinking windows -------
  int u = 0;
  for (int iter = 0; iter < M; ++iter) {
    const mesh::Box w1 = extended_window(d, reach - u++, 0);
    PlanEntry e1 = update(Operator::kAdaptation, 1,
                          iter == 0 ? ops::subtract_box(w1, inner)
                                    : std::vector<mesh::Box>{w1},
                          true);
    if (!(o.approximate_iteration && stale_c)) {
      e1 = fresh(std::move(e1), c_window(w1));
      stale_c = true;
    }
    plan.push_back(std::move(e1));
    for (int stage = 2; stage <= 3; ++stage) {
      const mesh::Box w = extended_window(d, reach - u++, 0);
      plan.push_back(
          fresh(update(Operator::kAdaptation, stage, {w}, true), c_window(w)));
    }
  }

  // --- the ONE advection exchange, then 3 updates on shrinking windows --
  plan.push_back(begin(Slot::kXi, {{FieldId::kU, 0, 4, 3},
                                   {FieldId::kV, 0, 4, 3},
                                   {FieldId::kPhi, 0, 4, 3},
                                   {FieldId::kPsa, 0, depth_psa, 0},
                                   {FieldId::kSdot, 0, 4, 3}}));
  const mesh::Box adv_inner = o.overlap ? inner_block(d, 2) : mesh::Box{};
  if (!adv_inner.empty()) {
    plan.push_back(update(Operator::kAdvection, 1, {adv_inner}, false));
    plan.back().inner = true;
  }
  plan.push_back(finish(/*fill=*/true));
  plan.push_back(update(Operator::kAdvection, 1,
                        ops::subtract_box(extended_window(d, 2, 2), adv_inner),
                        true));
  plan.push_back(update(Operator::kAdvection, 2, {extended_window(d, 1, 1)},
                        true));
  plan.push_back(update(Operator::kAdvection, 3, {extended_window(d, 0, 0)},
                        true));
  return plan;
}

StepPlan make_ca_finalize_plan() {
  StepPlan plan;
  append_full_smoothing(plan, /*fill=*/true);
  return plan;
}

CALayout ca_layout(const mesh::DomainDecomp& d, int M, const CAOptions& o) {
  StepPlan plans = make_ca_plan(d, M, o, false, false);
  for (const StepPlan& next : {make_ca_plan(d, M, o, true, true),
                               make_ca_finalize_plan()})
    plans.insert(plans.end(), next.begin(), next.end());
  return {plan_halo(plans, {FieldId::kU, FieldId::kV, FieldId::kPhi,
                            FieldId::kPsa, FieldId::kDivsum, FieldId::kSdot,
                            FieldId::kW, FieldId::kPhiGeo}),
          plan_halo(plans, {FieldId::kPrePhi, FieldId::kPrePsa})};
}

std::vector<PlanItem> original_halo_items(const mesh::DomainDecomp& d) {
  const state::StateHalo h = halos_for_depth(1);
  const int wx = d.owns_full_x() ? 0 : h.h3.x;
  const int wx2 = d.owns_full_x() ? 0 : h.hx2;
  return {{FieldId::kU, wx, h.h3.y, h.h3.z},
          {FieldId::kV, wx, h.h3.y, h.h3.z},
          {FieldId::kPhi, wx, h.h3.y, h.h3.z},
          {FieldId::kPsa, wx2, h.hy2, 0}};
}

StepPlan make_original_plan(const mesh::DomainDecomp& d, int M) {
  StepPlan plan;
  const std::vector<PlanItem> items = original_halo_items(d);
  const mesh::Box block = extended_window(d, 0, 0);
  const Slot input[] = {Slot::kXi, Slot::kEta, Slot::kMid};
  auto process = [&](Operator op, int iterations) {
    for (int iter = 0; iter < iterations; ++iter)
      for (int stage = 1; stage <= 3; ++stage) {
        plan.push_back(begin(input[stage - 1], items));
        plan.push_back(finish(/*fill=*/true));
        PlanEntry e = update(op, stage, {block}, false);
        plan.push_back(op == Operator::kAdaptation
                           ? fresh(std::move(e), block)
                           : std::move(e));
      }
  };
  process(Operator::kAdaptation, M);
  process(Operator::kAdvection, 1);
  plan.push_back(begin(Slot::kXi, items));
  plan.push_back(finish(/*fill=*/true));
  plan.push_back(smooth(Smoothing::kFull, /*fill=*/false));
  return plan;
}

std::vector<ExchangeItem> exchange_items(const std::vector<PlanItem>& items,
                                         state::State& s,
                                         ops::DiagWorkspace* ws,
                                         state::State* pre) {
  std::vector<ExchangeItem> out;
  out.reserve(items.size());
  for (const PlanItem& it : items) {
    ExchangeItem e{nullptr, nullptr, it.wx, it.wy, it.wz};
    switch (it.field) {
      case FieldId::kU: e.f3 = &s.u(); break;
      case FieldId::kV: e.f3 = &s.v(); break;
      case FieldId::kPhi: e.f3 = &s.phi(); break;
      case FieldId::kPsa: e.f2 = &s.psa(); break;
      case FieldId::kDivsum: e.f2 = &ws->vert.divsum; break;
      case FieldId::kSdot: e.f3 = &ws->vert.sdot; break;
      case FieldId::kW: e.f3 = &ws->vert.w; break;
      case FieldId::kPhiGeo: e.f3 = &ws->vert.phi_geo; break;
      case FieldId::kPrePhi: e.f3 = &pre->phi(); break;
      case FieldId::kPrePsa: e.f2 = &pre->psa(); break;
    }
    out.push_back(e);
  }
  return out;
}

void run_plan(const StepPlan& plan, PlanTarget& t) {
  const mesh::DomainDecomp& d = *t.op.decomp;
  const bool split_north = !d.at_north_pole();
  const bool split_south = !d.at_south_pole();
  obs::Tracer& tr = t.comm.tracer();
  state::State* slots[] = {&t.xi, &t.eta, &t.mid};
  state::State* exchanged = nullptr;
  bool carries_c = false;
  // Refreshes the physical boundaries of `s`; `psa` first carries the
  // base state's p'_sa along (the advection leaves it unchanged).
  auto fill = [&](state::State& s, bool psa) {
    obs::Span span = tr.phase_span(Phase::kBoundaryFill);
    if (psa) carry_psa(t.xi, s);
    fill_boundaries(t.op, s);
  };

  for (const PlanEntry& e : plan) {
    switch (e.kind) {
      case PlanEntry::Kind::kExchangeBegin:
        exchanged = slots[static_cast<int>(e.state)];
        carries_c = std::any_of(e.items.begin(), e.items.end(),
                                [](const PlanItem& it) {
                                  return is_c_product(it.field);
                                });
        t.exchanger.begin(exchange_items(e.items, *exchanged, &t.ws, t.pre));
        break;

      case PlanEntry::Kind::kExchangeFinish:
        t.exchanger.finish();
        if (carries_c)
          tr.timed(Phase::kBoundaryFill, [&] { wrap_vert_x(t.ws); });
        if (e.fill) fill(*exchanged, false);
        break;

      case PlanEntry::Kind::kUpdate: {
        state::State& in = *slots[e.stage - 1];
        state::State& out = e.stage == 3 ? t.xi : t.eta;
        const bool advect = e.op == Operator::kAdvection;
        const double dt = advect ? t.config.dt_advect : t.config.dt_adapt;
        obs::Span interior;
        if (e.inner) interior = tr.span("interior", "compute");
        for (const mesh::Box& w : e.windows) {
          evaluate_tendency(t, in, w, e);
          tr.timed(Phase::kUpdate,
                   [&] { out.add_scaled(t.xi, dt, t.tend, w); });
        }
        if (e.fill) fill(out, advect && e.stage < 3);
        if (e.stage == 2) {
          tr.timed(Phase::kUpdate, [&] {
            for (const mesh::Box& w : e.windows)
              t.mid.average(t.xi, t.eta, w);
          });
          if (e.fill) fill(t.mid, advect);
        }
        break;
      }

      case PlanEntry::Kind::kSmooth:
        tr.timed(Phase::kSmoothing, [&] {
          switch (e.smoothing) {
            case Smoothing::kFormer:
            case Smoothing::kFull: {
              // S from a copy of xi.  S1's copy is pre, which S2 reads
              // again once the exchange has filled its halo rows; until
              // then the rows within 2 of a split side are provisional.
              state::State& in =
                  e.smoothing == Smoothing::kFormer ? *t.pre : t.eta;
              in.assign(t.xi, in.extended(2, 2, 0));
              ops::apply_smoothing(t.op, in, t.xi, t.xi.interior());
              break;
            }
            case Smoothing::kLater:
              // The received pre-smoothing halo rows span the owned x
              // extent only; refresh their periodic x halos before S2's
              // x-quartic reads them.
              mesh::fill_x_periodic(t.pre->phi(), 2);
              mesh::fill_x_periodic(t.pre->psa(), 2);
              ops::apply_smoothing_later(t.op, *t.pre, t.xi, t.xi.interior(),
                                         split_north, split_south);
              break;
          }
        });
        if (e.fill) fill(t.xi, false);
        break;
    }
  }
}

}  // namespace ca::core
