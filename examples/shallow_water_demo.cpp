// Shallow-water demo: a gravity wave radiating from an equatorial height
// bump on the rotating sphere, printed as a coarse ASCII height-anomaly
// map — the classic first picture of any atmospheric-model substrate.
//
//   ./shallow_water_demo [nx=72] [ny=36] [steps=120] [ranks=2]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/runtime.hpp"
#include "swe/shallow_water.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace ca;
  const auto cfg_in = util::Config::from_args(argc, argv);
  swe::SweConfig cfg;
  cfg.nx = cfg_in.get_int("nx", 72);
  cfg.ny = cfg_in.get_int("ny", 36);
  cfg.dt = cfg_in.get_double("dt", 60.0);
  const int steps = cfg_in.get_int("steps", 120);
  const int ranks = cfg_in.get_int("ranks", 2);

  std::printf(
      "Shallow-water gravity wave, %dx%d, dt = %.0f s, %d steps, %d "
      "ranks\n\n",
      cfg.nx, cfg.ny, cfg.dt, steps, ranks);

  comm::Runtime::run(ranks, [&](comm::Context& ctx) {
    swe::ShallowWaterCore core(cfg, ctx, ranks);
    auto s = core.make_state();
    core.initialize(s, swe::SweInitial::kGravityWave);

    auto report = [&](int step) {
      std::vector<double> sums{core.local_mass(s), core.local_energy(s)};
      std::vector<double> tot(2);
      comm::allreduce<double>(ctx, ctx.world(), sums, tot,
                              comm::ReduceOp::kSum);
      std::vector<double> vm{core.max_abs_velocity(s)}, vmax(1);
      comm::allreduce<double>(ctx, ctx.world(), vm, vmax,
                              comm::ReduceOp::kMax);
      if (ctx.world_rank() == 0)
        std::printf("step %4d: mass %.6e  energy %.6e  max|v| %6.2f m/s\n",
                    step, tot[0], tot[1], vmax[0]);
    };

    report(0);
    for (int n = 0; n < steps; ++n) {
      core.step(s);
      if ((n + 1) % std::max(1, steps / 4) == 0) report(n + 1);
    }

    // ASCII height-anomaly map, rows printed rank by rank.
    const char* shades = " .:-=+*#%@";
    for (int r = 0; r < ranks; ++r) {
      comm::barrier(ctx, ctx.world());
      if (r != ctx.world_rank()) continue;
      if (r == 0) std::printf("\nheight anomaly (equator bump radiating):\n");
      for (int j = 0; j < core.decomp().lny(); j += 2) {
        for (int i = 0; i < cfg.nx; i += 2) {
          const double an = s.h(i, j) - cfg.mean_depth;
          int level = static_cast<int>((an + 50.0) / 100.0 * 9.0 + 0.5);
          level = std::min(9, std::max(0, level));
          std::fputc(shades[level], stdout);
        }
        std::fputc('\n', stdout);
      }
      std::fflush(stdout);
    }
    comm::barrier(ctx, ctx.world());
  });
  return 0;
}
