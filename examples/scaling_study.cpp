// Decomposition and scaling study with the performance model: sweeps
// process counts and decomposition schemes at the paper's 50 km mesh and
// prints the modeled communication/computation breakdown — a miniature,
// configurable version of Figures 6-8.
//
//   ./scaling_study [years=10] [dt=600] [pmin=64] [pmax=1024]
#include <cstdio>
#include <iostream>
#include <string>

#include "core/schedule_builders.hpp"
#include "perf/event_sim.hpp"
#include "perf/report.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace ca;
  const auto cfg = util::Config::from_args(argc, argv);
  const double years = cfg.get_double("years", 10.0);
  const double dt = cfg.get_double("dt", 600.0);
  const int pmin = cfg.get_int("pmin", 64);
  const int pmax = cfg.get_int("pmax", 1024);
  const long long steps =
      static_cast<long long>(years * 365.0 * 86400.0 / dt);

  const auto machine = perf::MachineModel::tianhe2();
  core::ScheduleParams base;
  base.mesh = {720, 360, 30};
  base.M = 3;
  base.steps = 1;

  std::printf(
      "Modeled scaling of the 50 km dynamical core, %g model years "
      "(K = %lld steps)\n\n",
      years, steps);
  std::printf("%6s %10s | %12s %12s %12s | %12s\n", "p", "scheme", "coll [s]",
              "stencil [s]", "compute [s]", "total [s]");

  for (int p = pmin; p <= pmax; p *= 2) {
    struct Row {
      const char* name;
      perf::Schedule sched;
    };
    auto params_yz = base;
    params_yz.grid = {1, p / 8, 8};
    auto params_xy = base;
    int px = 1;
    while (px * px < p) px *= 2;
    params_xy.grid = {px, p / px, 1};

    const Row rows[] = {
        {"XY", core::build_original_schedule(params_xy, machine)},
        {"YZ", core::build_original_schedule(params_yz, machine)},
        {"CA", core::build_ca_schedule(params_yz, machine)},
    };
    for (const auto& row : rows) {
      const auto r = perf::simulate(row.sched, machine);
      const double scale = static_cast<double>(steps);
      std::printf("%6d %10s | %12.0f %12.0f %12.0f | %12.0f\n", p, row.name,
                  scale * r.phase_max_seconds(util::Phase::kCollective),
                  scale * r.phase_max_seconds(util::Phase::kStencil),
                  scale * r.phase_max_seconds(util::Phase::kCompute),
                  scale * r.makespan);
    }
    std::printf("\n");
  }
  // Detailed per-phase breakdown for the largest run: where the time
  // goes inside one step, and which rank sets the makespan.
  {
    auto params = base;
    params.grid = {1, pmax / 8, 8};
    const auto yz =
        perf::simulate(core::build_original_schedule(params, machine), machine);
    const auto ca =
        perf::simulate(core::build_ca_schedule(params, machine), machine);
    std::printf("\nPer-phase breakdown of one step at p = %d:\n", pmax);
    perf::print_summary(std::cout, yz, "original Y-Z");
    perf::print_summary(std::cout, ca, "communication-avoiding");
    std::printf("critical ranks: YZ %d, CA %d\n", perf::critical_rank(yz),
                perf::critical_rank(ca));
  }

  std::printf(
      "\nSet CA_AGCM_YEARS / pmin= / pmax= to explore other run lengths and\n"
      "rank ranges; perf::MachineModel holds the Tianhe-2 calibration.\n");
  return 0;
}
