// Shared setup of the figure-reproduction benches: the paper's evaluation
// configuration (Section 5.1) — 720x360x30 mesh (50 km), M = 3, 10 model
// years on Tianhe-2 — and the process grids for p = 128..1024.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <fstream>

#include "core/schedule_builders.hpp"
#include "perf/report.hpp"
#include "perf/event_sim.hpp"
#include "util/config.hpp"
#include "util/proc_grid.hpp"

namespace ca::bench {

struct EvalSetup {
  perf::MeshShape mesh{720, 360, 30};
  int M = 3;
  /// Advection (outer) time step [s]; 10 model years of steps.
  double dt_step = 600.0;
  double model_years = 10.0;
  std::vector<int> procs{128, 256, 512, 1024};

  long long steps() const {
    return static_cast<long long>(model_years * 365.0 * 86400.0 / dt_step);
  }

  /// Y-Z process grid for p ranks.  Prefers pz = 8 (nz = 30 practice);
  /// when 8 does not divide p (or nz < 8) it falls back to the largest
  /// divisor of p that is <= min(nz, 8), so py * pz == p always holds.
  /// (Shared with the service's degraded-pool reshaping: util/proc_grid.)
  perf::ProcGrid yz_grid(int p) const {
    const auto g = util::yz_grid(p, mesh.nz);
    return perf::ProcGrid{g[0], g[1], g[2]};
  }
  /// X-Y grid: most-square factorization with px a power of two, halved
  /// until it divides p so px * py == p always holds.
  perf::ProcGrid xy_grid(int p) const {
    const auto g = util::xy_grid(p);
    return perf::ProcGrid{g[0], g[1], g[2]};
  }

  core::ScheduleParams params(perf::ProcGrid grid) const {
    core::ScheduleParams sp;
    sp.mesh = mesh;
    sp.grid = grid;
    sp.M = M;
    sp.steps = 1;  // one periodic step, scaled to the full run
    return sp;
  }

  /// Scale a one-step time to the full 10-model-year run.
  double full_run(double per_step) const {
    return per_step * static_cast<double>(steps());
  }
};

/// Reads overrides from the environment (CA_AGCM_YEARS, CA_AGCM_DT, ...).
inline EvalSetup setup_from_env() {
  util::Config cfg;
  EvalSetup s;
  s.model_years = cfg.get_double("years", s.model_years);
  s.dt_step = cfg.get_double("dt", s.dt_step);
  s.M = cfg.get_int("m", s.M);
  return s;
}

struct PhaseTimes {
  double collective = 0.0;
  double stencil = 0.0;
  double compute = 0.0;
  double total = 0.0;
};

/// When CA_AGCM_CSV names a file, every simulated configuration appends
/// its per-phase summary rows there (for external plotting).
inline void maybe_dump_csv(const std::string& label,
                           const perf::SimResult& result) {
  static const char* path = std::getenv("CA_AGCM_CSV");
  if (path == nullptr) return;
  static std::ofstream out(path, std::ios::app);
  perf::append_csv(out, label, result);
}

/// Simulates one step of `schedule` and scales every phase to the full run.
inline PhaseTimes run_scaled(const EvalSetup& setup,
                             const perf::Schedule& schedule,
                             const perf::MachineModel& machine,
                             const std::string& csv_label = "") {
  const auto result = perf::simulate(schedule, machine);
  if (!csv_label.empty()) maybe_dump_csv(csv_label, result);
  PhaseTimes t;
  t.collective =
      setup.full_run(result.phase_max_seconds(util::Phase::kCollective));
  t.stencil = setup.full_run(result.phase_max_seconds(util::Phase::kStencil));
  t.compute = setup.full_run(result.phase_max_seconds(util::Phase::kCompute));
  t.total = setup.full_run(result.makespan);
  return t;
}

}  // namespace ca::bench
