// Figure 7: communication time of the stencil updates over the
// 10-model-year run — X-Y vs Y-Z original (13 exchanges per step) vs the
// communication-avoiding algorithm (2 deep exchanges per step, overlapped
// with computation).
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace ca;
  using namespace ca::bench;
  const EvalSetup setup = setup_from_env();
  const auto machine = perf::MachineModel::tianhe2();

  std::printf("Figure 7: stencil-communication time, 10 model years [s]\n\n");
  std::printf("%6s %14s %14s %14s %12s\n", "p", "XY", "YZ", "CA", "YZ/CA");
  std::printf("%.6s-%.14s-%.14s-%.14s-%.12s\n", "------", "--------------",
              "--------------", "--------------", "------------");

  double speedup_sum = 0.0;
  double yz1024 = 0.0, ca1024 = 0.0;
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
    const double speedup = yz.stencil / ca.stencil;
    speedup_sum += speedup;
    if (p == 1024) {
      yz1024 = yz.stencil;
      ca1024 = ca.stencil;
    }
    std::printf("%6d %14.0f %14.0f %14.0f %11.2fx\n", p, xy.stencil,
                yz.stencil, ca.stencil, speedup);
  }
  std::printf(
      "\nAverage YZ->CA stencil speedup: %.2fx (paper: 3x-6x, avg 3.9x)\n",
      speedup_sum / setup.procs.size());
  if (yz1024 > 0.0)
    std::printf(
        "At p = 1024: YZ %.0f s -> CA %.0f s "
        "(paper: 17,400 s -> 2,800 s)\n",
        yz1024, ca1024);
  std::printf(
      "Paper reference: the communication frequency drops from 13 to 2\n"
      "per step; the CA variant sends slightly MORE volume (corner halos,\n"
      "deep layers) but far fewer, overlapped messages.\n");
  return 0;
}
