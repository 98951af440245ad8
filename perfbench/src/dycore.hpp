// Dycore side of the benchmark: drives the original and CA cores one
// step() at a time, checks their answers against twin runs, and derives
// the per-layer numbers of the traced run by replaying each layer's public
// calls at the workload's per-rank block and window shapes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dycore_config.hpp"
#include "obs/trace.hpp"
#include "state/initial.hpp"
#include "trace.hpp"

namespace pb {

enum class CoreKind { kSerial, kOriginal, kCA };

/// One dycore configuration: core, mesh and dt (cfg), Y-Z process grid.
struct Shape {
  CoreKind kind = CoreKind::kCA;
  ca::core::DycoreConfig cfg;
  std::array<int, 3> dims{1, 1, 1};
  ca::core::CAOptions ca;

  int ranks() const { return dims[0] * dims[1] * dims[2]; }
};

/// Trace lanes that are not ranks.
inline constexpr int kMainLane = 100;
inline constexpr int kReplayLaneBase = 200;

/// Directory receiving the flight-recorder dumps of every run the benchmark
/// launches.  The program's obs defaults stay on (the recorder is armed);
/// only the dumps are kept out of the working directory.
void set_dump_dir(std::string dir);
const std::string& dump_dir();

/// Planetary-wave initial condition whose wave amplitude and jet speed
/// are drawn from `seed`.
ca::state::InitialOptions seeded_initial(std::uint64_t seed);

/// Per-rank counters over the measured window.
struct RankWindow {
  /// PhaseTimers deltas per measured step.
  std::vector<double> exchange, exchange_wait, collective;
  std::uint64_t messages = 0;  ///< CommStats deltas over the window
  std::uint64_t bytes = 0;
  std::uint64_t collective_calls = 0;
  /// FourierFilter workspace acquires over the window (counted by the
  /// filter), and what the replayed step schedule predicts for it.
  std::uint64_t filter_acquires = 0;
  std::uint64_t filter_acquires_expected = 0;
  double filter_rows_per_step = 0.0;  ///< active rows the schedule filters
};

struct StepRun {
  double setup_s = 0.0;        ///< launch + construct + initialize
  std::vector<double> step_s;  ///< slowest rank's wall, per measured step
  std::vector<char> traced;    ///< whether the program's tracing was on
  double window_s = 0.0;
  std::vector<RankWindow> ranks;
  std::uint64_t input_digest = 0;  ///< the initialized state, all ranks
  std::string health;              ///< sentinel verdict ("" = healthy)
  std::string error;               ///< exception text of a failed run

  /// Step walls of the steps with (or without) the program's tracing.
  std::vector<double> steps_where(bool with_trace) const;
};

struct StepOptions {
  double seconds = 10.0;
  int min_steps = 100;  ///< p90 needs ten samples beyond it
  /// When set, every measured step runs under a span per rank.
  Trace* trace = nullptr;
  /// When set, every other block of steps runs with the program's own obs
  /// tracing on, exporting to this collector, so its overhead is measured
  /// against the other steps of the same run.  Per-layer numbers come from
  /// the other steps only.
  ca::obs::TraceCollector* program_trace = nullptr;
  /// After the window, each rank replays its layers (ops, boundary fill,
  /// sentinel, checkpoint writes) under spans on its own lane.
  bool probe = false;
  std::string scratch_dir;  ///< checkpoint files of the probe
};

/// Runs warm-up, then steps until `seconds` passed and `min_steps` were
/// measured; every step is fenced so its wall is the slowest rank's.  The
/// filter's workspace counter over the window is compared with the step
/// schedule the traced run replays (see check_schedule).
StepRun run_steps(const Shape& shape, const ca::state::InitialOptions& ic,
                  const StepOptions& opts);

/// Wall of one launch + construct + initialize, without stepping.
double time_setup(const Shape& shape, const ca::state::InitialOptions& ic);

/// Fails a check when any rank's filter work over the window differs from
/// the replayed step schedule, i.e. when a core's step() changed and the
/// schedule (and the calls_per_step, cells_per_owned_cell and
/// lines_per_step derived from it) no longer describes it.
void check_schedule(const StepRun& run, Tally& tally);

/// Short twin runs on the shape's mesh: original vs serial, CA exact mode
/// vs original, default CA vs exact mode (core_parallel_equiv bounds).
void check_twins(const Shape& shape, const ca::state::InitialOptions& ic,
                 Tally& tally);

/// Per-layer metrics of the core/ops/fft/comm/util layers and the
/// sentinel replay for `shape`; `traced` must come from a probing run.
/// Adds its own probe spans (serial step, FFT, p2p, allreduce) to trace.
Metrics dycore_layers(const Shape& shape, const ca::state::InitialOptions& ic,
                      const StepRun& traced, Trace& trace);

}  // namespace pb
