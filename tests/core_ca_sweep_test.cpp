// Parameter sweeps of the communication-avoiding core: every combination
// of M, finite-difference order, vertical-level stretching, and
// decomposition must (a) run stably and (b) remain
// decomposition-invariant in exact mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/diagnostics.hpp"
#include "core/exchange.hpp"
#include "core/step_plan.hpp"
#include "util/checkpoint.hpp"

namespace ca::core {
namespace {

struct SweepCase {
  int M;
  int x_order;
  bool stretched;
  std::array<int, 3> dims;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const auto& c = info.param;
  return "M" + std::to_string(c.M) + "_ord" + std::to_string(c.x_order) +
         (c.stretched ? "_str" : "_uni") + "_py" +
         std::to_string(c.dims[1]) + "pz" + std::to_string(c.dims[2]);
}

DycoreConfig sweep_config(const SweepCase& c) {
  DycoreConfig cfg;
  cfg.nx = 24;
  // Block-size constraint: ny/py >= 3M + 1.
  cfg.ny = c.dims[1] * (3 * c.M + 4);
  cfg.nz = std::max(8, c.dims[2] * 4);
  cfg.M = c.M;
  cfg.dt_adapt = 30.0;
  cfg.dt_advect = 120.0;
  cfg.params.x_order = c.x_order;
  cfg.stretched_levels = c.stretched;
  cfg.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  return cfg;
}

class CASweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CASweep, StableAndDecompositionInvariant) {
  const auto& param = GetParam();
  const auto cfg = sweep_config(param);
  const auto ic = state::InitialCondition::kPlanetaryWave;
  constexpr int kSteps = 2;

  CAOptions opts;
  opts.fresh_c_on_block_face = false;  // exact mode

  state::State reference;
  comm::Runtime::run(1, [&](comm::Context& ctx) {
    CACore core(cfg, ctx, {1, 1, 1}, opts);
    auto xi = core.make_state();
    state::InitialOptions o;
    o.kind = ic;
    core.initialize(xi, o);
    core.run(xi, kSteps);
    reference = gather_global(core.op_context(), ctx, core.topology(), xi);
  });

  // Stability.
  GlobalDiag diag;
  {
    mesh::LatLonMesh mesh(cfg.nx, cfg.ny, cfg.nz);
    auto levels = cfg.stretched_levels ? mesh::SigmaLevels::stretched(cfg.nz)
                                       : mesh::SigmaLevels::uniform(cfg.nz);
    state::Stratification strat(levels);
    mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
    ops::OpContext ctx{&mesh, &levels, &strat, &d, cfg.params};
    diag = local_diagnostics(ctx, reference);
  }
  EXPECT_TRUE(std::isfinite(diag.total_energy()));
  EXPECT_LT(diag.max_abs_u, 500.0);

  const int p = param.dims[0] * param.dims[1] * param.dims[2];
  comm::Runtime::run(p, [&](comm::Context& ctx) {
    CACore core(cfg, ctx, param.dims, opts);
    auto xi = core.make_state();
    state::InitialOptions o;
    o.kind = ic;
    core.initialize(xi, o);
    core.run(xi, kSteps);
    auto g = gather_global(core.op_context(), ctx, core.topology(), xi);
    if (ctx.world_rank() == 0) {
      EXPECT_LT(state::State::max_abs_diff(g, reference,
                                           reference.interior()),
                1e-8)
          << case_name({GetParam(), 0});
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Parameters, CASweep,
    ::testing::Values(SweepCase{2, 4, false, {1, 2, 1}},
                      SweepCase{3, 4, false, {1, 2, 1}},
                      SweepCase{4, 4, false, {1, 2, 1}},
                      SweepCase{2, 2, false, {1, 2, 1}},
                      SweepCase{2, 4, true, {1, 2, 1}},
                      SweepCase{2, 4, false, {1, 2, 2}},
                      SweepCase{2, 2, true, {1, 2, 2}},
                      SweepCase{3, 4, false, {1, 3, 1}}),
    case_name);

TEST(CASweepCounts, ExchangeCountIndependentOfM) {
  // Two exchanges per steady step for every M — the whole point.
  for (int M : {2, 3, 4}) {
    DycoreConfig cfg;
    cfg.nx = 24;
    cfg.ny = 2 * (3 * M + 4);
    cfg.nz = 8;
    cfg.M = M;
    comm::Runtime::run(2, [&](comm::Context& ctx) {
      CACore core(cfg, ctx, {1, 2, 1});
      auto xi = core.make_state();
      state::InitialOptions o;
      o.kind = state::InitialCondition::kPlanetaryWave;
      core.initialize(xi, o);
      core.step(xi);
      auto before = ctx.stats().phase_totals(util::Phase::kStencil);
      core.step(xi);
      auto after = ctx.stats().phase_totals(util::Phase::kStencil);
      // 10 items in the adaptation exchange + 5 in the advection one,
      // one neighbor.
      EXPECT_EQ(after.p2p_messages - before.p2p_messages, 15u)
          << "M = " << M;
    });
  }
}

/// Per-axis halo widths, {x, y, z}.
using Widths = std::array<int, 3>;

Widths widths(const util::Array3D<double>& a) {
  return {a.halo().x, a.halo().y, a.halo().z};
}
Widths widths(const util::Array2D<double>& a) { return {a.hx(), a.hy(), 0}; }

/// The halos of the fields a CA carry block holds, in order, and its
/// declared minimum block extents.
struct CarryShape {
  std::uint64_t min_lny = 0, min_lnz = 0;
  std::vector<Widths> halos;
};

CarryShape carry_shape(const CACore& core) {
  util::CarryWriter w;
  core.save_carry(w);
  util::CarryReader r(w.bytes());
  CarryShape out;
  EXPECT_EQ(r.get_u64(), util::kReshardableCarryMagic);
  out.min_lny = r.get_u64();
  out.min_lnz = r.get_u64();
  for (std::uint64_t n = r.get_u64(); n > 0; --n) r.get_i64();
  for (std::uint64_t n = r.get_u64(); n > 0; --n) {
    r.get_u64();  // is3d
    std::array<std::uint64_t, 12> g{};  // global, local, halo, origin
    for (std::uint64_t& v : g) v = r.get_u64();
    std::vector<double> raw((g[3] + 2 * g[6]) * (g[4] + 2 * g[7]) *
                            (g[5] + 2 * g[8]));
    r.get_doubles(raw);
    out.halos.push_back({static_cast<int>(g[6]), static_cast<int>(g[7]),
                         static_cast<int>(g[8])});
  }
  r.expect_end();
  return out;
}

TEST(CALayout, HalosAreTheWidestThePlansExchange) {
  std::vector<std::pair<const char*, CAOptions>> options(5);
  options[0].first = "default";
  options[1] = {"approximate_iteration off", {}};
  options[1].second.approximate_iteration = false;
  options[2] = {"overlap off", {}};
  options[2].second.overlap = false;
  options[3] = {"fuse_smoothing off", {}};
  options[3].second.fuse_smoothing = false;
  options[4] = {"fresh_c_on_block_face off", {}};
  options[4].second.fresh_c_on_block_face = false;
  const std::array<int, 3> splits[] = {
      {1, 2, 1}, {1, 4, 1}, {1, 2, 2}, {1, 1, 2}};

  for (int M : {2, 3, 4})
    for (const auto& dims : splits)
      for (const auto& [name, opts] : options) {
        DycoreConfig cfg;
        cfg.nx = 24;
        cfg.ny = 4 * (3 * M + 1);
        cfg.nz = 8;
        cfg.M = M;
        comm::Runtime::run(dims[1] * dims[2], [&](comm::Context& ctx) {
          SCOPED_TRACE(testing::Message()
                       << "M " << M << " dims {1," << dims[1] << ","
                       << dims[2] << "} " << name << " rank "
                       << ctx.world_rank());
          CACore core(cfg, ctx, dims, opts);
          const state::State xi = core.make_state();
          const ops::VertDiag& vert = core.workspace().vert;
          const CarryShape carry = carry_shape(core);
          // The carry holds the four C products only; the pre-smoothing
          // copy is allocated from the layout's `pre` halo.
          ASSERT_EQ(carry.halos.size(), 4u);
          for (std::size_t f = 0; f < 3; ++f)
            EXPECT_EQ(carry.halos[f], widths(vert.sdot));
          EXPECT_EQ(carry.halos[3], widths(vert.divsum));
          const state::StateHalo pre = ca_layout(core.decomp(), M, opts).pre;
          const Widths pre_phi{pre.h3.x, pre.h3.y, pre.h3.z},
              pre_psa{pre.hx2, pre.hy2, 0};

          // The halo allocated for each field a plan item can name.
          auto allocated = [&](FieldId f) -> Widths {
            switch (f) {
              case FieldId::kU: return widths(xi.u());
              case FieldId::kV: return widths(xi.v());
              case FieldId::kPhi: return widths(xi.phi());
              case FieldId::kPsa: return widths(xi.psa());
              case FieldId::kDivsum: return widths(vert.divsum);
              case FieldId::kSdot: return widths(vert.sdot);
              case FieldId::kW: return widths(vert.w);
              case FieldId::kPhiGeo: return widths(vert.phi_geo);
              case FieldId::kPrePhi: return pre_phi;
              case FieldId::kPrePsa: return pre_psa;
            }
            return {};
          };

          // Every item fits the array it names; record the widest item
          // per field group and axis.
          const mesh::DomainDecomp& d = core.decomp();
          int y3 = 0, z3 = 0, y2 = 0, pre_y = 0, pre_z = 0;
          for (const StepPlan& plan :
               {make_ca_plan(d, M, opts, false, false),
                make_ca_plan(d, M, opts, true, true),
                make_ca_finalize_plan()})
            for (const PlanEntry& e : plan)
              for (const PlanItem& it : e.items) {
                const Widths a = allocated(it.field);
                EXPECT_LE(it.wx, a[0]);
                EXPECT_LE(it.wy, a[1]);
                EXPECT_LE(it.wz, a[2]);
                if (it.field == FieldId::kPrePhi ||
                    it.field == FieldId::kPrePsa) {
                  pre_y = std::max(pre_y, it.wy);
                  pre_z = std::max(pre_z, it.wz);
                } else if (footprint(it).is2d) {
                  y2 = std::max(y2, it.wy);
                } else {
                  y3 = std::max(y3, it.wy);
                  z3 = std::max(z3, it.wz);
                }
              }

          // Nothing deeper than the widest item: y keeps today's exchange
          // widths, z is the advection's 3, not 3M.
          EXPECT_EQ(y3, 3 * M + 1);
          EXPECT_EQ(y2, 3 * M + 2);
          EXPECT_EQ(z3, 3);
          EXPECT_EQ(xi.u().halo().z, 3);
          for (FieldId f : {FieldId::kU, FieldId::kV, FieldId::kPhi})
            EXPECT_EQ(allocated(f), (Widths{3, y3, z3}));
          EXPECT_EQ(allocated(FieldId::kPsa), (Widths{3, y2, 0}));
          EXPECT_EQ(allocated(FieldId::kDivsum), (Widths{3, y2, 0}));
          // VertDiag's interface-indexed arrays add one z layer so the
          // bottom interface of the deepest valid level exists.
          for (FieldId f : {FieldId::kSdot, FieldId::kW, FieldId::kPhiGeo})
            EXPECT_EQ(allocated(f), (Widths{3, y3, z3 + 1}));
          EXPECT_EQ(pre_phi, (Widths{3, pre_y, pre_z}));
          EXPECT_EQ(pre_psa, (Widths{3, pre_y, 0}));
          EXPECT_EQ(pre_y, opts.fuse_smoothing ? 4 : 0);

          // One minimum block: the carry declares the widths the
          // constructor checks.
          EXPECT_EQ(carry.min_lny, static_cast<std::uint64_t>(y3));
          EXPECT_EQ(carry.min_lnz, static_cast<std::uint64_t>(z3));
        });
      }
}

TEST(CALayout, BlocksBelowTheDeepestHaloAreRefused) {
  for (int M : {2, 3}) {
    DycoreConfig cfg;
    cfg.nx = 24;
    cfg.ny = 2 * (3 * M);  // one row short of the 3M + 1 deep y halo
    cfg.nz = 4;            // one layer short of the 3-deep z halo at pz 2
    cfg.M = M;
    comm::Runtime::run(2, [&](comm::Context& ctx) {
      EXPECT_THROW(CACore(cfg, ctx, {1, 2, 1}), std::invalid_argument);
    });
    comm::Runtime::run(2, [&](comm::Context& ctx) {
      EXPECT_THROW(CACore(cfg, ctx, {1, 1, 2}), std::invalid_argument);
    });
    cfg.ny += 2;
    cfg.nz += 2;
    comm::Runtime::run(2, [&](comm::Context& ctx) {
      EXPECT_NO_THROW(CACore(cfg, ctx, {1, 2, 1}));
    });
    comm::Runtime::run(2, [&](comm::Context& ctx) {
      EXPECT_NO_THROW(CACore(cfg, ctx, {1, 1, 2}));
    });
  }
}

}  // namespace
}  // namespace ca::core
