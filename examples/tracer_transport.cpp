// Tracer transport demo: a plume released in the mid-latitude jet,
// advected by the dynamical core's own velocity fields with both tracer
// schemes side by side; writes plottable text fields and prints transport
// diagnostics.
//
//   ./tracer_transport [nx=64] [ny=32] [nz=8] [hours=48]
#include <cstdio>
#include <filesystem>

#include "core/exchange.hpp"
#include "core/serial_core.hpp"
#include "ops/tracer.hpp"
#include "util/config.hpp"
#include "util/field_io.hpp"

int main(int argc, char** argv) {
  using namespace ca;
  const auto cfg_in = util::Config::from_args(argc, argv);
  core::DycoreConfig cfg;
  cfg.nx = cfg_in.get_int("nx", 64);
  cfg.ny = cfg_in.get_int("ny", 32);
  cfg.nz = cfg_in.get_int("nz", 8);
  const double hours = cfg_in.get_double("hours", 48.0);

  core::SerialCore core(cfg);
  const auto& ctx = core.op_context();
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kZonalJet;
  opt.jet_speed = 35.0;
  core.initialize(xi, opt);
  core.fill_boundaries(xi);
  ops::DiagWorkspace ws(cfg.nx, cfg.ny, cfg.nz, core::halos_for_depth(1));
  ops::compute_local_diag(ctx, xi, xi.interior(), ws);
  core::compute_c(ctx, nullptr, nullptr, xi, xi.interior(), ws,
                  comm::AllreduceAlgorithm::kAuto);

  const double dt = 300.0;
  const int steps = static_cast<int>(hours * 3600.0 / dt);
  std::printf(
      "Tracer transport in the zonal jet: %dx%dx%d, %.0f h (%d steps)\n\n",
      cfg.nx, cfg.ny, cfg.nz, hours, steps);

  auto plume = [&] {
    util::Array3D<double> q(cfg.nx, cfg.ny, cfg.nz,
                            core::halos_for_depth(1).h3);
    const int i0 = cfg.nx / 8, j0 = cfg.ny / 4, k0 = cfg.nz / 3;
    for (int k = 0; k < cfg.nz; ++k)
      for (int j = 0; j < cfg.ny; ++j)
        for (int i = 0; i < cfg.nx; ++i)
          q(i, j, k) = std::exp(-0.5 * (std::pow((i - i0) / 3.0, 2) +
                                        std::pow((j - j0) / 2.0, 2) +
                                        std::pow((k - k0) / 1.5, 2)));
    return q;
  };

  const auto out_dir = std::filesystem::temp_directory_path();
  for (auto scheme : {ops::TracerScheme::kSkewSymmetric,
                      ops::TracerScheme::kUpwindMonotone}) {
    const bool upwind = scheme == ops::TracerScheme::kUpwindMonotone;
    auto q = plume();
    ops::advance_tracer(ctx, xi, ws.local, ws.vert, q, dt, steps, scheme);
    double mn = 1e30, mx = -1e30, total = 0.0;
    for (int k = 0; k < cfg.nz; ++k)
      for (int j = 0; j < cfg.ny; ++j)
        for (int i = 0; i < cfg.nx; ++i) {
          mn = std::min(mn, q(i, j, k));
          mx = std::max(mx, q(i, j, k));
          total += ctx.sin_t(j) * ctx.dsig(k) * q(i, j, k);
        }
    const std::string path =
        (out_dir / (std::string("ca_agcm_plume_") +
                    (upwind ? "upwind" : "centered") + ".txt"))
            .string();
    util::write_text_level(path, upwind ? "upwind plume" : "centered plume",
                           q, cfg.nz / 3);
    std::printf("%-10s: min %+.4f  max %.4f  weighted total %.4f  -> %s\n",
                upwind ? "upwind" : "centered", mn, mx, total,
                path.c_str());
  }
  std::printf(
      "\nThe centered (skew-symmetric) scheme ripples around the plume\n"
      "(negative minima); the monotone upwind scheme stays in [0, 1] at\n"
      "the cost of spreading.  Load the .txt files with numpy.loadtxt or\n"
      "gnuplot's 'plot ... matrix' to see the plume.\n");
  return 0;
}
