// Schedule builders: the per-rank communication/computation program of
// one time step of each algorithm variant (original X-Y, original Y-Z,
// 3-D, communication-avoiding) for the perf event simulator.  The builders
// lower the core's StepPlan (core/step_plan.hpp) — the very plan the
// functional core executes — for every rank, so message counts, byte
// volumes and collectives match the runtime's traffic statistics by
// construction (asserted by tests/schedule_match_test.cpp), which is what
// makes the full-scale (p = 128..1024) simulated figures trustworthy.
#pragma once

#include "core/dycore_config.hpp"
#include "perf/lower_bounds.hpp"
#include "perf/machine.hpp"
#include "perf/schedule.hpp"

namespace ca::core {

struct ScheduleParams {
  perf::MeshShape mesh{720, 360, 30};
  perf::ProcGrid grid{1, 128, 8};
  int M = 3;
  /// Steps to emit (the schedule is periodic; results scale linearly).
  int steps = 1;
  /// Colatitude band of active Fourier-filter rows (fraction of ny rows
  /// filtered, both poles combined).
  double filter_fraction = 0.35;
  /// Calibrated computation densities [flops per mesh point per update].
  double flops_adapt = 160.0;
  double flops_advect = 200.0;
  double flops_smooth = 70.0;
  double flops_column = 25.0;
  /// Switches of the CA step, modelled in its steady state (smoothing
  /// pending, stale C products available).
  CAOptions ca;
};

/// The original algorithm on params.grid.  The grid alone decides the
/// scheme: C's z-line collectives run when pz > 1, the distributed Fourier
/// filter when px > 1 (X-Y, or 3-D with both).
perf::Schedule build_original_schedule(const ScheduleParams& params,
                                       const perf::MachineModel& machine);

perf::Schedule build_ca_schedule(const ScheduleParams& params,
                                 const perf::MachineModel& machine);

}  // namespace ca::core
