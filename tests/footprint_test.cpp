// Stencil footprints of every term in the paper's Tables 1-3, measured by
// perturbation probing of the actual kernels.  The x footprints reproduce
// the tables' 4th-order patterns; y and z footprints are the 2nd-order
// {j, j+-1} / {k, k+-1} patterns; the HALO-WIDTH consequences (per-update
// widths 1 in y and z, <= 3 in x, +-2 smoothing) that the
// communication-avoiding halos rely on are asserted for every term.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dycore_config.hpp"
#include "core/exchange.hpp"
#include "core/serial_core.hpp"
#include "ops/adaptation.hpp"
#include "ops/advection.hpp"
#include "ops/footprint.hpp"
#include "ops/smoothing.hpp"
#include "ops/tendency.hpp"

namespace ca::ops {
namespace {

/// Serial fixture with smooth nontrivial fields and computed diagnostics.
class FootprintFixture : public ::testing::Test {
 protected:
  FootprintFixture()
      : core_(make_config()),
        xi_(core_.make_state()),
        ws_(make_config().nx, make_config().ny, make_config().nz,
            core::halos_for_depth(1)) {
    state::InitialOptions opt;
    opt.kind = state::InitialCondition::kPlanetaryWave;
    core_.initialize(xi_, opt);
    // Add an x-varying pressure anomaly so pes-derivative terms are live.
    for (int j = 0; j < xi_.lny(); ++j)
      for (int i = 0; i < xi_.lnx(); ++i)
        xi_.psa()(i, j) = 300.0 * std::sin(0.7 * i + 0.3 * j);
    core_.fill_boundaries(xi_);
    refresh();
  }

  /// Recomputes all diagnostics from the (possibly perturbed) state.
  void refresh() {
    ops::compute_local_diag(core_.op_context(), xi_, xi_.interior(), ws_);
    core::compute_c(core_.op_context(), nullptr, nullptr, xi_, xi_.interior(),
                    ws_, comm::AllreduceAlgorithm::kAuto);
  }

  static core::DycoreConfig make_config() {
    core::DycoreConfig c;
    c.nx = 16;
    c.ny = 12;
    c.nz = 6;
    return c;
  }

  /// Probes a term treating U, V, Phi, psa AND the derived fields the
  /// paper's tables treat as stencil inputs (phi', sigma-dot/W, p_es).
  std::set<Offset> probe(std::function<double()> eval, int i0, int j0,
                         int k0, int radius = 4) {
    FootprintProbe p;
    p.inputs3d = {&xi_.u(), &xi_.v(), &xi_.phi(), &ws_.vert.phi_geo,
                  &ws_.vert.sdot, &ws_.vert.w, &ws_.local.div};
    p.inputs2d = {&xi_.psa(), &ws_.local.pes, &ws_.local.pfac,
                  &ws_.vert.divsum};
    p.eval = std::move(eval);
    return measure_footprint(p, i0, j0, k0, radius);
  }

  core::SerialCore core_;
  state::State xi_;
  DiagWorkspace ws_;
};

constexpr int kI = 7, kJ = 5, kK = 2;

// --------------------------- Table 1: adaptation ---------------------------

TEST_F(FootprintFixture, Table1_PLambda1) {
  AdaptationTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.p_lambda1(kI, kJ, kK); }, kI, kJ, kK);
  // Table 1: x in {i, i+-1, i-2}; y = j; z local (phi' carries the k,k+1
  // coupling through the hydrostatic integral in C).
  EXPECT_EQ(x_offsets(fp), (std::set<int>{-2, -1, 0, 1}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(z_offsets(fp), (std::set<int>{0}));
}

TEST_F(FootprintFixture, Table1_PLambda2) {
  AdaptationTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.p_lambda2(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{-2, -1, 0, 1}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(z_offsets(fp), (std::set<int>{0}));
}

TEST_F(FootprintFixture, Table1_CoriolisU) {
  AdaptationTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.coriolis_u(kI, kJ, kK); }, kI, kJ, kK);
  // Table 1 f*V: x in {i, i-1}, y in {j, j-1}.
  EXPECT_EQ(x_offsets(fp), (std::set<int>{-1, 0}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{-1, 0}));
  EXPECT_EQ(z_offsets(fp), (std::set<int>{0}));
}

TEST_F(FootprintFixture, Table1_PTheta1) {
  AdaptationTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.p_theta1(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{0, 1}));  // Table 1: j, j+1
  EXPECT_EQ(z_offsets(fp), (std::set<int>{0}));
}

TEST_F(FootprintFixture, Table1_PTheta2) {
  AdaptationTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.p_theta2(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{0, 1}));
  EXPECT_EQ(z_offsets(fp), (std::set<int>{0}));
}

TEST_F(FootprintFixture, Table1_CoriolisV) {
  AdaptationTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.coriolis_v(kI, kJ, kK); }, kI, kJ, kK);
  // Table 1 f*U: x in {i, i+1}, y in {j, j+1}.
  EXPECT_EQ(x_offsets(fp), (std::set<int>{0, 1}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{0, 1}));
}

TEST_F(FootprintFixture, Table1_Omega1) {
  AdaptationTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.omega1(kI, kJ, kK); }, kI, kJ, kK);
  // Table 1 Omega^1: x = i, y = j, z in {k, k+1} (through W at the two
  // bounding interfaces).
  EXPECT_EQ(x_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(z_offsets(fp), (std::set<int>{0, 1}));
}

TEST_F(FootprintFixture, Table1_Omega2Theta) {
  AdaptationTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.omega2_theta(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{-1, 0, 1}));  // j, j+-1
}

TEST_F(FootprintFixture, Table1_Omega2Lambda) {
  AdaptationTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.omega2_lambda(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{-2, -1, 0, 1, 2}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{0}));
}

TEST_F(FootprintFixture, Table1_Dsa) {
  AdaptationTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.d_sa(kI, kJ); }, kI, kJ, 0);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{-1, 0, 1}));  // i, i+-1
  EXPECT_EQ(y_offsets(fp), (std::set<int>{-1, 0, 1}));  // j, j+-1
}

// --------------------------- Table 2: advection -----------------------------

TEST_F(FootprintFixture, Table2_L1U) {
  AdvectionTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.l1_u(kI, kJ, kK); }, kI, kJ, kK);
  // Table 2: x in {i, i+-1, i+-2, i+-3}; y = j.
  EXPECT_EQ(x_offsets(fp), (std::set<int>{-3, -2, -1, 0, 1, 2, 3}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(z_offsets(fp), (std::set<int>{0}));
}

TEST_F(FootprintFixture, Table2_L2U) {
  AdvectionTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.l2_u(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{-1, 0}));     // i, i-1
  EXPECT_EQ(y_offsets(fp), (std::set<int>{-1, 0, 1}));  // j, j+-1
}

TEST_F(FootprintFixture, Table2_L3U) {
  AdvectionTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.l3_u(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{-1, 0}));
  EXPECT_EQ(z_offsets(fp), (std::set<int>{-1, 0, 1}));  // k, k+-1
}

TEST_F(FootprintFixture, Table2_L1V) {
  AdvectionTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.l1_v(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{-3, -2, -1, 0, 1, 2, 3}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{0, 1}));  // j, j+1
}

TEST_F(FootprintFixture, Table2_L2V) {
  AdvectionTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.l2_v(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{-1, 0, 1}));
}

TEST_F(FootprintFixture, Table2_L3V) {
  AdvectionTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.l3_v(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{0, 1}));      // j, j+1
  EXPECT_EQ(z_offsets(fp), (std::set<int>{-1, 0, 1}));  // k, k+-1
}

TEST_F(FootprintFixture, Table2_L1Phi) {
  AdvectionTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.l1_phi(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{-3, -2, -1, 0, 1, 2, 3}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{0}));
}

TEST_F(FootprintFixture, Table2_L2Phi) {
  AdvectionTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.l2_phi(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{-1, 0, 1}));
}

TEST_F(FootprintFixture, Table2_L3Phi) {
  AdvectionTerms t(core_.op_context(), xi_, ws_.local, ws_.vert);
  auto fp = probe([&] { return t.l3_phi(kI, kJ, kK); }, kI, kJ, kK);
  EXPECT_EQ(x_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(y_offsets(fp), (std::set<int>{0}));
  EXPECT_EQ(z_offsets(fp), (std::set<int>{-1, 0, 1}));
}

// --------------------------- Table 3: smoothing -----------------------------

TEST_F(FootprintFixture, Table3_P1AndP2) {
  // Measure the smoothing through apply_smoothing on a single point.
  auto out = core_.make_state();
  const auto& ctx = core_.op_context();
  // P1 (on U): x in {i, i+-1, i+-2}, y = j.
  {
    FootprintProbe p;
    p.inputs3d = {&xi_.u()};
    p.eval = [&] {
      apply_smoothing(ctx, xi_, out,
                      mesh::Box{kI, kI + 1, kJ, kJ + 1, kK, kK + 1});
      return out.u()(kI, kJ, kK);
    };
    auto fp = measure_footprint(p, kI, kJ, kK, 3);
    EXPECT_EQ(x_offsets(fp), (std::set<int>{-2, -1, 0, 1, 2}));
    EXPECT_EQ(y_offsets(fp), (std::set<int>{0}));
  }
  // P2 (on Phi): x and y in {0, +-1, +-2}.
  {
    FootprintProbe p;
    p.inputs3d = {&xi_.phi()};
    p.eval = [&] {
      apply_smoothing(ctx, xi_, out,
                      mesh::Box{kI, kI + 1, kJ, kJ + 1, kK, kK + 1});
      return out.phi()(kI, kJ, kK);
    };
    auto fp = measure_footprint(p, kI, kJ, kK, 3);
    EXPECT_EQ(x_offsets(fp), (std::set<int>{-2, -1, 0, 1, 2}));
    EXPECT_EQ(y_offsets(fp), (std::set<int>{-2, -1, 0, 1, 2}));
    EXPECT_EQ(z_offsets(fp), (std::set<int>{0}));
  }
}

// ------------------- Halo-width consequences (Section 4.3) -----------------

TEST_F(FootprintFixture, PerUpdateHaloWidthIsOneInYandZ) {
  // The 3M-deep halo argument requires every adaptation/advection term to
  // reach at most one cell in y and z — measure the FULL assembled
  // tendencies.
  AdaptationTerms a(core_.op_context(), xi_, ws_.local, ws_.vert);
  AdvectionTerms l(core_.op_context(), xi_, ws_.local, ws_.vert);
  for (auto eval : std::vector<std::function<double()>>{
           [&] { return a.tend_u(kI, kJ, kK); },
           [&] { return a.tend_v(kI, kJ, kK); },
           [&] { return a.tend_phi(kI, kJ, kK); },
           [&] { return l.tend_u(kI, kJ, kK); },
           [&] { return l.tend_v(kI, kJ, kK); },
           [&] { return l.tend_phi(kI, kJ, kK); }}) {
    auto fp = probe(eval, kI, kJ, kK);
    const auto e = extent(fp);
    EXPECT_GE(e.dj_min, -1);
    EXPECT_LE(e.dj_max, 1);
    EXPECT_GE(e.dk_min, -1);
    EXPECT_LE(e.dk_max, 1);
    EXPECT_GE(e.di_min, -3);
    EXPECT_LE(e.di_max, 3);
  }
}

TEST_F(FootprintFixture, SecondOrderXShrinksFootprints) {
  // The x_order = 2 ablation must use only nearest x neighbors in L1.
  auto cfg = make_config();
  cfg.params.x_order = 2;
  core::SerialCore core2(cfg);
  auto xi2 = core2.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kPlanetaryWave;
  core2.initialize(xi2, opt);
  DiagWorkspace ws2(cfg.nx, cfg.ny, cfg.nz, core::halos_for_depth(1));
  ops::compute_local_diag(core2.op_context(), xi2, xi2.interior(), ws2);
  core::compute_c(core2.op_context(), nullptr, nullptr, xi2, xi2.interior(),
                  ws2, comm::AllreduceAlgorithm::kAuto);
  AdvectionTerms t(core2.op_context(), xi2, ws2.local, ws2.vert);
  FootprintProbe p;
  p.inputs3d = {&xi2.phi()};
  p.eval = [&] { return t.l1_phi(kI, kJ, kK); };
  auto fp = measure_footprint(p, kI, kJ, kK, 4);
  const auto e = extent(fp);
  EXPECT_GE(e.di_min, -1);
  EXPECT_LE(e.di_max, 1);
}

}  // namespace
}  // namespace ca::ops
