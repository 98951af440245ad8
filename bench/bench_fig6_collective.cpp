// Figure 6: time for collective communication over the 10-model-year run —
// F under X-Y decomposition vs C under Y-Z vs the communication-avoiding
// algorithm (approximate nonlinear iteration: 2M instead of 3M executions
// of C, ~30% of the collective volume removed).
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace ca;
  using namespace ca::bench;
  const EvalSetup setup = setup_from_env();
  const auto machine = perf::MachineModel::tianhe2();

  std::printf(
      "Figure 6: collective-communication time, 10 model years [s]\n\n");
  std::printf("%6s %14s %14s %14s %12s\n", "p", "XY (F)", "YZ (C)",
              "CA", "YZ/CA");
  std::printf("%.6s-%.14s-%.14s-%.14s-%.12s\n", "------",
              "--------------", "--------------", "--------------",
              "------------");

  double speedup_sum = 0.0;
  for (int p : setup.procs) {
    const auto xy = run_scaled(
        setup,
        core::build_original_schedule(setup.params(setup.xy_grid(p)), machine),
        machine);
    const auto yz = run_scaled(
        setup,
        core::build_original_schedule(setup.params(setup.yz_grid(p)), machine),
        machine);
    const auto ca = run_scaled(
        setup, core::build_ca_schedule(setup.params(setup.yz_grid(p)),
                                       machine),
        machine);
    const double speedup = yz.collective / ca.collective;
    speedup_sum += speedup;
    std::printf("%6d %14.0f %14.0f %14.0f %11.2fx\n", p, xy.collective,
                yz.collective, ca.collective, speedup);
  }
  std::printf(
      "\nAverage YZ->CA collective speedup: %.2fx "
      "(paper: 1.4x on average)\n",
      speedup_sum / setup.procs.size());
  std::printf(
      "Paper reference: F under X-Y costs far more than C under Y-Z\n"
      "(n_x >> n_z); the approximate iteration removes one third of the\n"
      "summations along z.\n");
  return 0;
}
