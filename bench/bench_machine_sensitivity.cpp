// Sensitivity of the CA-vs-original verdict to the machine balance:
// sweeps the per-message cost (alpha) and the per-rank effective
// bandwidth, reporting the CA/YZ runtime ratio — where the
// communication-avoiding reorganization wins, where it loses to its own
// redundant computation, and where the crossover falls.  (The paper's
// Section 5.3 asserts the win persists at larger p; this bench maps the
// machine-parameter region where that holds.)
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace ca;
  using namespace ca::bench;
  const EvalSetup setup = setup_from_env();
  const int p = 512;

  const double alphas[] = {1e-6, 1e-5, 5e-5, 1.5e-4, 5e-4};
  const double bandwidths[] = {5e7, 2.5e8, 1e9, 5e9};

  std::printf(
      "CA/YZ total-runtime ratio at p = %d (values < 1: CA wins)\n\n", p);
  std::printf("%12s |", "alpha \\ BW");
  for (double bw : bandwidths) std::printf(" %9.0e", bw);
  std::printf("\n");

  for (double a : alphas) {
    std::printf("%12.0e |", a);
    for (double bw : bandwidths) {
      perf::MachineModel m = perf::MachineModel::tianhe2();
      m.alpha = a;
      m.beta = 1.0 / bw;
      const auto yz = perf::simulate(
          core::build_original_schedule(setup.params(setup.yz_grid(p)), m),
          m);
      const auto ca = perf::simulate(
          core::build_ca_schedule(setup.params(setup.yz_grid(p)), m), m);
      std::printf(" %9.2f", ca.makespan / yz.makespan);
    }
    std::printf("\n");
  }
  std::printf(
      "\nLatency-dominated machines (large alpha) reward the frequency\n"
      "reduction most; on very fat networks the redundant computation\n"
      "makes the original scheme competitive again — the crossover the\n"
      "communication-avoiding literature predicts.\n");
  return 0;
}
