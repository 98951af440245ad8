// Figure 8: total runtime of the dynamical core over the 10-model-year
// run for the three algorithms, with the paper's headline numbers: -54%
// vs X-Y at p = 512; ~113,500 s / ~46,300 s saved at p = 1024 vs X-Y and
// Y-Z respectively; 1.4x average speedup over Y-Z.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace ca;
  using namespace ca::bench;
  const EvalSetup setup = setup_from_env();
  const auto machine = perf::MachineModel::tianhe2();

  std::printf("Figure 8: total dynamical-core runtime, 10 model years [s]\n\n");
  std::printf("%6s %14s %14s %14s %10s %10s\n", "p", "XY", "YZ", "CA",
              "vs XY", "vs YZ");
  std::printf("%.6s-%.14s-%.14s-%.14s-%.10s-%.10s\n", "------",
              "--------------", "--------------", "--------------",
              "----------", "----------");

  double speedup_sum = 0.0;
  for (int p : setup.procs) {
    const auto xy = run_scaled(
        setup,
        core::build_original_schedule(setup.params(setup.xy_grid(p)), machine),
        machine, "fig8_xy_p" + std::to_string(p));
    const auto yz = run_scaled(
        setup,
        core::build_original_schedule(setup.params(setup.yz_grid(p)), machine),
        machine, "fig8_yz_p" + std::to_string(p));
    const auto ca = run_scaled(
        setup, core::build_ca_schedule(setup.params(setup.yz_grid(p)),
                                       machine),
        machine, "fig8_ca_p" + std::to_string(p));
    speedup_sum += yz.total / ca.total;
    std::printf("%6d %14.0f %14.0f %14.0f %9.1f%% %9.1f%%\n", p, xy.total,
                yz.total, ca.total, 100.0 * (1.0 - ca.total / xy.total),
                100.0 * (1.0 - ca.total / yz.total));
    if (p == 512)
      std::printf(
          "        -> reduction vs X-Y at p=512: %.0f%% "
          "(paper: 54%% at most)\n",
          100.0 * (1.0 - ca.total / xy.total));
    if (p == 1024)
      std::printf(
          "        -> saved at p=1024: %.0f s vs X-Y, %.0f s vs Y-Z "
          "(paper: ~113,500 s and ~46,300 s)\n",
          xy.total - ca.total, yz.total - ca.total);
  }
  std::printf(
      "\nAverage CA speedup over Y-Z original: %.2fx (paper: 1.4x)\n",
      speedup_sum / setup.procs.size());
  return 0;
}
