// Section 2.2 / 4.2 claim: "although the 2-dimensional decomposition
// strategies impact the parallelism of atmospheric models, they are
// always more efficient than 3-dimensional decomposition in real-world
// applications."  This bench compares the modeled runtime of the original
// algorithm under Y-Z, X-Y, and full 3-D decompositions at equal p.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace ca;
  using namespace ca::bench;
  const EvalSetup setup = setup_from_env();
  const auto machine = perf::MachineModel::tianhe2();

  std::printf(
      "2-D vs 3-D decomposition, original algorithm, 10 model years [s]\n\n");
  std::printf("%6s %14s %14s %14s | %12s\n", "p", "YZ (2-D)", "XY (2-D)",
              "3-D", "best 2-D/3-D");
  std::printf("%.6s-%.14s-%.14s-%.14s-+-%.12s\n", "------",
              "--------------", "--------------", "--------------",
              "------------");

  struct Grid3D {
    int p;
    perf::ProcGrid grid;
  };
  // 3-D grids with px a small power of two and pz = 4 (nx % px == 0).
  const Grid3D grids[] = {
      {128, {4, 8, 4}},
      {256, {4, 16, 4}},
      {512, {8, 16, 4}},
      {1024, {8, 32, 4}},
  };

  for (const auto& g : grids) {
    const auto yz = run_scaled(
        setup,
        core::build_original_schedule(setup.params(setup.yz_grid(g.p)),
                                      machine),
        machine);
    const auto xy = run_scaled(
        setup,
        core::build_original_schedule(setup.params(setup.xy_grid(g.p)),
                                      machine),
        machine);
    const auto d3 = run_scaled(
        setup,
        core::build_original_schedule(setup.params(g.grid), machine),
        machine);
    const double best2d = std::min(yz.total, xy.total);
    std::printf("%6d %14.0f %14.0f %14.0f | %11.2fx\n", g.p, yz.total,
                xy.total, d3.total, d3.total / best2d);
  }
  std::printf(
      "\nThe 3-D scheme pays BOTH collective families (F along x and C\n"
      "along z) plus 26-neighbor halos; the best 2-D scheme (Y-Z) avoids\n"
      "the dominant one — the paper's argument for ruling 3-D out.\n");
  return 0;
}
