// Tables 1-3: prints the measured stencil footprint of every term, in the
// paper's layout (term | x offsets | y offsets | z offsets), from the
// same perturbation probing the tests assert.
#include <cstdio>

#include <functional>
#include <sstream>

#include "core/exchange.hpp"
#include "core/serial_core.hpp"
#include "ops/adaptation.hpp"
#include "ops/advection.hpp"
#include "ops/footprint.hpp"
#include "ops/smoothing.hpp"
#include "ops/tendency.hpp"

namespace {

using namespace ca;

std::string fmt_offsets(const std::set<int>& offs) {
  std::ostringstream out;
  bool first = true;
  for (int o : offs) {
    if (!first) out << ", ";
    first = false;
    if (o == 0) {
      out << "0";
    } else {
      out << (o > 0 ? "+" : "") << o;
    }
  }
  return out.str();
}

}  // namespace

int main() {
  core::DycoreConfig c;
  c.nx = 16;
  c.ny = 12;
  c.nz = 6;
  core::SerialCore core(c);
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kPlanetaryWave;
  core.initialize(xi, opt);
  for (int j = 0; j < xi.lny(); ++j)
    for (int i = 0; i < xi.lnx(); ++i)
      xi.psa()(i, j) = 300.0 * std::sin(0.7 * i + 0.3 * j);
  core.fill_boundaries(xi);
  ops::DiagWorkspace ws(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  ops::compute_local_diag(core.op_context(), xi, xi.interior(), ws);
  core::compute_c(core.op_context(), nullptr, nullptr, xi, xi.interior(), ws,
                  comm::AllreduceAlgorithm::kAuto);

  ops::AdaptationTerms a(core.op_context(), xi, ws.local, ws.vert);
  ops::AdvectionTerms l(core.op_context(), xi, ws.local, ws.vert);
  constexpr int kI = 7, kJ = 5, kK = 2;

  auto probe = [&](std::function<double()> eval) {
    ops::FootprintProbe p;
    p.inputs3d = {&xi.u(), &xi.v(), &xi.phi(), &ws.vert.phi_geo,
                  &ws.vert.sdot, &ws.vert.w, &ws.local.div};
    p.inputs2d = {&xi.psa(), &ws.local.pes, &ws.local.pfac,
                  &ws.vert.divsum};
    p.eval = std::move(eval);
    return ops::measure_footprint(p, kI, kJ, kK, 4);
  };

  struct Row {
    const char* name;
    std::function<double()> eval;
  };
  const Row table1[] = {
      {"P_lambda^(1)", [&] { return a.p_lambda1(kI, kJ, kK); }},
      {"P_lambda^(2)", [&] { return a.p_lambda2(kI, kJ, kK); }},
      {"f*V", [&] { return a.coriolis_u(kI, kJ, kK); }},
      {"P_theta^(1)", [&] { return a.p_theta1(kI, kJ, kK); }},
      {"P_theta^(2)", [&] { return a.p_theta2(kI, kJ, kK); }},
      {"f*U", [&] { return a.coriolis_v(kI, kJ, kK); }},
      {"Omega^(1)", [&] { return a.omega1(kI, kJ, kK); }},
      {"Omega_theta^(2)", [&] { return a.omega2_theta(kI, kJ, kK); }},
      {"Omega_lambda^(2)", [&] { return a.omega2_lambda(kI, kJ, kK); }},
      {"D_sa", [&] { return a.d_sa(kI, kJ); }},
  };
  const Row table2[] = {
      {"L1(U)", [&] { return l.l1_u(kI, kJ, kK); }},
      {"L2(U)", [&] { return l.l2_u(kI, kJ, kK); }},
      {"L3(U)", [&] { return l.l3_u(kI, kJ, kK); }},
      {"L1(V)", [&] { return l.l1_v(kI, kJ, kK); }},
      {"L2(V)", [&] { return l.l2_v(kI, kJ, kK); }},
      {"L3(V)", [&] { return l.l3_v(kI, kJ, kK); }},
      {"L1(Phi)", [&] { return l.l1_phi(kI, kJ, kK); }},
      {"L2(Phi)", [&] { return l.l2_phi(kI, kJ, kK); }},
      {"L3(Phi)", [&] { return l.l3_phi(kI, kJ, kK); }},
  };

  std::printf("Table 1: measured stencil footprints, adaptation process\n");
  std::printf("%-18s | %-22s | %-14s | %-10s\n", "term", "x", "y", "z");
  for (const auto& row : table1) {
    auto fp = probe(row.eval);
    std::printf("%-18s | %-22s | %-14s | %-10s\n", row.name,
                fmt_offsets(ops::x_offsets(fp)).c_str(),
                fmt_offsets(ops::y_offsets(fp)).c_str(),
                fmt_offsets(ops::z_offsets(fp)).c_str());
  }
  std::printf("\nTable 2: measured stencil footprints, advection process\n");
  std::printf("%-18s | %-22s | %-14s | %-10s\n", "term", "x", "y", "z");
  for (const auto& row : table2) {
    auto fp = probe(row.eval);
    std::printf("%-18s | %-22s | %-14s | %-10s\n", row.name,
                fmt_offsets(ops::x_offsets(fp)).c_str(),
                fmt_offsets(ops::y_offsets(fp)).c_str(),
                fmt_offsets(ops::z_offsets(fp)).c_str());
  }

  std::printf("\nTable 3: measured stencil footprints, smoothing\n");
  auto out = core.make_state();
  {
    ops::FootprintProbe p;
    p.inputs3d = {&xi.u()};
    p.eval = [&] {
      ops::apply_smoothing(core.op_context(), xi, out,
                           mesh::Box{kI, kI + 1, kJ, kJ + 1, kK, kK + 1});
      return out.u()(kI, kJ, kK);
    };
    auto fp = ops::measure_footprint(p, kI, kJ, kK, 3);
    std::printf("%-18s | %-22s | %-14s | %-10s\n", "P1 (U, V)",
                fmt_offsets(ops::x_offsets(fp)).c_str(),
                fmt_offsets(ops::y_offsets(fp)).c_str(),
                fmt_offsets(ops::z_offsets(fp)).c_str());
  }
  {
    ops::FootprintProbe p;
    p.inputs3d = {&xi.phi()};
    p.eval = [&] {
      ops::apply_smoothing(core.op_context(), xi, out,
                           mesh::Box{kI, kI + 1, kJ, kJ + 1, kK, kK + 1});
      return out.phi()(kI, kJ, kK);
    };
    auto fp = ops::measure_footprint(p, kI, kJ, kK, 3);
    std::printf("%-18s | %-22s | %-14s | %-10s\n", "P2 (Phi, p'_sa)",
                fmt_offsets(ops::x_offsets(fp)).c_str(),
                fmt_offsets(ops::y_offsets(fp)).c_str(),
                fmt_offsets(ops::z_offsets(fp)).c_str());
  }
  std::printf(
      "\nNote: z couplings of P^(1)/Omega^(1) (paper: k, k+1) appear here\n"
      "through the C operator's vertical integrals (phi', W), not as\n"
      "direct state reads — see DESIGN.md.\n");
  return 0;
}
