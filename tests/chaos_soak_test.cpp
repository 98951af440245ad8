// Chaos suite, part 2: sweep every core (serial reference, distributed
// original, communication-avoiding) and the 1xN / Nx1 / NxM decompositions
// under a low-probability mix of recoverable faults, and soak the CA core
// across several fault seeds.  Every run must finish inside a wall-clock
// bound (no hangs) and reproduce the fault-free state bit-for-bit.
#include <gtest/gtest.h>

#include <array>
#include <chrono>

#include "comm/context.hpp"
#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/exchange.hpp"
#include "core/original_core.hpp"
#include "core/serial_core.hpp"

namespace ca::core {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kWallClockBound = 120.0;

DycoreConfig chaos_config() {
  DycoreConfig c;
  c.nx = 24;
  c.ny = 16;
  c.nz = 8;
  c.M = 2;
  c.dt_adapt = 30.0;
  c.dt_advect = 120.0;
  c.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  return c;
}

enum class CoreKind { kSerial, kOriginal, kCA };

struct SweepCase {
  CoreKind kind;
  DecompScheme scheme;       // only read for kOriginal
  std::array<int, 3> dims;   // {1,1,1} for kSerial
  const char* name;
};

/// Runs one core to `steps` under `opts` and returns the global state
/// (gathered to rank 0 for the distributed cores).
state::State run_core(const SweepCase& c, const DycoreConfig& cfg, int steps,
                      const comm::RunOptions& opts) {
  const auto ic = state::InitialCondition::kPlanetaryWave;
  if (c.kind == CoreKind::kSerial) {
    // The serial core never communicates; it anchors the sweep and proves
    // the harness itself does not perturb a comm-free run.
    SerialCore core(cfg);
    auto xi = core.make_state();
    state::InitialOptions init;
    init.kind = ic;
    core.initialize(xi, init);
    core.run(xi, steps);
    return xi;
  }
  state::State global;
  const int p = c.dims[0] * c.dims[1] * c.dims[2];
  comm::Runtime::run(p, opts, [&](comm::Context& ctx) {
    state::State g;
    if (c.kind == CoreKind::kOriginal) {
      OriginalCore core(cfg, ctx, c.scheme, c.dims);
      auto xi = core.make_state();
      state::InitialOptions init;
      init.kind = ic;
      core.initialize(xi, init);
      core.run(xi, steps);
      g = gather_global(core.op_context(), ctx, core.topology(), xi);
    } else {
      CACore core(cfg, ctx, c.dims);
      auto xi = core.make_state();
      state::InitialOptions init;
      init.kind = ic;
      core.initialize(xi, init);
      core.run(xi, steps);
      g = gather_global(core.op_context(), ctx, core.topology(), xi);
    }
    if (ctx.world_rank() == 0) global = std::move(g);
  });
  return global;
}

comm::FaultPlan mixed_plan(std::uint64_t seed) {
  comm::FaultPlan plan(seed);
  auto add = [&](comm::FaultKind kind, double p, int param) {
    comm::FaultRule r;
    r.kind = kind;
    r.probability = p;
    r.param = param;
    plan.add_rule(r);
  };
  add(comm::FaultKind::kDrop, 0.05, 1);
  add(comm::FaultKind::kDuplicate, 0.05, 1);
  add(comm::FaultKind::kDelay, 0.05, 2);
  return plan;
}

class ChaosSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ChaosSweep, RecoversBitForBitUnderMixedFaults) {
  const SweepCase& c = GetParam();
  const DycoreConfig cfg = chaos_config();
  constexpr int kSteps = 2;

  const state::State reference =
      run_core(c, cfg, kSteps, comm::RunOptions{});

  comm::FaultPlan plan = mixed_plan(0xC0FFEEu);
  comm::RunOptions opts;
  opts.faults = &plan;
  const auto start = Clock::now();
  const state::State chaos = run_core(c, cfg, kSteps, opts);
  EXPECT_LT(elapsed_seconds(start), kWallClockBound) << "chaos run hung";

  const auto s = plan.summary();
  const int p = c.dims[0] * c.dims[1] * c.dims[2];
  if (p > 1) {
    EXPECT_GT(s.injected_total(), 0u)
        << "no faults injected on " << c.name << "; sweep case is vacuous";
  }
  EXPECT_EQ(s.detected_total(), 0u)
      << "recoverable faults must not surface as errors";
  const double diff =
      state::State::max_abs_diff(chaos, reference, reference.interior());
  EXPECT_EQ(diff, 0.0) << c.name << ": recovery was not bit-for-bit";
}

// 1xN = one decomposed axis (z), Nx1 = the other (y), NxM = both.  The CA
// core requires px == 1; the original core sweeps its kYZ scheme over the
// same shapes.
INSTANTIATE_TEST_SUITE_P(
    CoresAndDecomps, ChaosSweep,
    ::testing::Values(
        SweepCase{CoreKind::kSerial, DecompScheme::kYZ, {1, 1, 1}, "serial"},
        SweepCase{CoreKind::kOriginal, DecompScheme::kYZ, {1, 1, 2},
                  "original_1xN"},
        SweepCase{CoreKind::kOriginal, DecompScheme::kYZ, {1, 2, 1},
                  "original_Nx1"},
        SweepCase{CoreKind::kOriginal, DecompScheme::kYZ, {1, 2, 2},
                  "original_NxM"},
        SweepCase{CoreKind::kCA, DecompScheme::kYZ, {1, 1, 2}, "ca_1xN"},
        SweepCase{CoreKind::kCA, DecompScheme::kYZ, {1, 2, 1}, "ca_Nx1"},
        SweepCase{CoreKind::kCA, DecompScheme::kYZ, {1, 2, 2}, "ca_NxM"}),
    [](const ::testing::TestParamInfo<SweepCase>& i) {
      return i.param.name;
    });

TEST(ChaosSoak, CASurvivesManySeedsBitForBit) {
  // Soak: higher fault rates, stalls included, several seeds.  Each seeded
  // run must still match the fault-free reference exactly.
  const DycoreConfig cfg = chaos_config();
  constexpr int kSteps = 3;
  const SweepCase ca{CoreKind::kCA, DecompScheme::kYZ, {1, 2, 2}, "ca_soak"};

  const state::State reference =
      run_core(ca, cfg, kSteps, comm::RunOptions{});

  for (std::uint64_t seed : {11ull, 2024ull, 987654321ull}) {
    SCOPED_TRACE(::testing::Message() << "fault seed " << seed);
    comm::FaultPlan plan = mixed_plan(seed);
    comm::FaultRule stall;
    stall.kind = comm::FaultKind::kStall;
    stall.probability = 0.25;
    stall.param = 20;  // 20 poll intervals = 4 ms per stalled step
    plan.add_rule(stall);

    comm::RunOptions opts;
    opts.faults = &plan;
    const auto start = Clock::now();
    const state::State chaos = run_core(ca, cfg, kSteps, opts);
    EXPECT_LT(elapsed_seconds(start), kWallClockBound) << "soak run hung";

    const auto s = plan.summary();
    EXPECT_GT(s.injected_total(), 0u);
    EXPECT_EQ(s.detected_total(), 0u);
    const double diff =
        state::State::max_abs_diff(chaos, reference, reference.interior());
    EXPECT_EQ(diff, 0.0) << "soak seed " << seed << " diverged";
  }
}

}  // namespace
}  // namespace ca::core
