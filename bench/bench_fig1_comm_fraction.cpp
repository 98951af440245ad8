// Figure 1: percentage of time spent in communication vs computation in
// the (original) dynamical core, mesh 720x360x30, one MPI process per
// core.  The paper's bars show communication dominating and growing with
// the process count.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace ca;
  using namespace ca::bench;
  const EvalSetup setup = setup_from_env();
  const auto machine = perf::MachineModel::tianhe2();

  std::printf(
      "Figure 1: communication vs computation share of the dynamical core\n"
      "mesh %lldx%lldx%lld, M = %d, original algorithm (Y-Z and X-Y)\n\n",
      setup.mesh.nx, setup.mesh.ny, setup.mesh.nz, setup.M);
  std::printf("%6s | %-22s | %-22s\n", "", "Y-Z decomposition",
              "X-Y decomposition");
  std::printf("%6s | %10s %10s | %10s %10s\n", "p", "comm %", "comp %",
              "comm %", "comp %");
  std::printf("-------+-----------------------+----------------------\n");

  for (int p : setup.procs) {
    double share[2][2];
    int col = 0;
    for (auto scheme : {core::DecompScheme::kYZ, core::DecompScheme::kXY}) {
      const auto grid = scheme == core::DecompScheme::kYZ
                            ? setup.yz_grid(p)
                            : setup.xy_grid(p);
      const auto sched =
          core::build_original_schedule(setup.params(grid), machine);
      const auto result = perf::simulate(sched, machine);
      // Average per-rank shares (the paper's bars are per-run fractions).
      double comm = 0.0, comp = 0.0;
      for (const auto& r : result.ranks) {
        const double w = r.phases[util::Phase::kCompute].seconds;
        const double c = r.phases[util::Phase::kCollective].seconds +
                         r.phases[util::Phase::kStencil].seconds;
        comm += c;
        comp += w;
      }
      share[col][0] = 100.0 * comm / (comm + comp);
      share[col][1] = 100.0 * comp / (comm + comp);
      ++col;
    }
    std::printf("%6d | %9.1f%% %9.1f%% | %9.1f%% %9.1f%%\n", p, share[0][0],
                share[0][1], share[1][0], share[1][1]);
  }
  std::printf(
      "\nPaper reference: communication time dominates the dynamical core\n"
      "runtime and its share grows with p (Fig. 1 shows ~55-85%%).\n");
  return 0;
}
