// The contract that makes the full-scale simulated figures trustworthy:
// the schedule builders must emit exactly the message counts and byte
// volumes the functional runtime produces, for both algorithms, across
// decompositions.  Both sides fill the same per-rank record
// (util::PhaseRecord), compared phase by phase.
#include <gtest/gtest.h>

#include <mutex>

#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/original_core.hpp"
#include "core/schedule_builders.hpp"
#include "perf/event_sim.hpp"

namespace ca::core {
namespace {

DycoreConfig func_config() {
  DycoreConfig c;
  c.nx = 24;
  c.ny = 16;
  c.nz = 16;
  c.M = 2;
  return c;
}

ScheduleParams model_params(const DycoreConfig& c, perf::ProcGrid grid) {
  ScheduleParams p;
  p.mesh = {c.nx, c.ny, c.nz};
  p.grid = grid;
  p.M = c.M;
  p.steps = 1;
  return p;
}

using util::Phase;
using util::PhaseRecord;

/// One steady-state step's record of the functional core, summed over
/// ranks.
template <typename MakeCore>
PhaseRecord functional_record(int p, MakeCore make, int warmup_steps) {
  PhaseRecord out;
  std::mutex mu;
  comm::Runtime::run(p, [&](comm::Context& ctx) {
    auto core = make(ctx);
    auto xi = core->make_state();
    state::InitialOptions opt;
    opt.kind = state::InitialCondition::kPlanetaryWave;
    core->initialize(xi, opt);
    for (int w = 0; w < warmup_steps; ++w) core->step(xi);
    ctx.stats().record().clear();
    core->step(xi);
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t ph = 0; ph < util::kPhaseCount; ++ph)
      out[static_cast<Phase>(ph)] +=
          ctx.stats().record()[static_cast<Phase>(ph)];
  });
  return out;
}

/// The simulated record of the schedule, summed over ranks.
PhaseRecord modelled_record(const perf::Schedule& schedule) {
  PhaseRecord out;
  const auto result = perf::simulate(schedule, perf::MachineModel::tianhe2());
  for (std::size_t ph = 0; ph < util::kPhaseCount; ++ph)
    out[static_cast<Phase>(ph)] = result.phase_total(static_cast<Phase>(ph));
  return out;
}

/// Stencil against stencil and collective against collective: the same
/// messages, bytes and collective calls (seconds are measured on one side,
/// modelled on the other).  `collective_bytes` is off where the model
/// prices the distributed filter as the paper's butterfly and the
/// functional core runs an allgather (X-Y and 3-D).
void expect_same_traffic(const PhaseRecord& model, const PhaseRecord& func,
                         bool collective_bytes = true) {
  for (const Phase ph : {Phase::kStencil, Phase::kCollective}) {
    SCOPED_TRACE(util::phase_name(ph));
    EXPECT_EQ(model[ph].p2p_messages, func[ph].p2p_messages);
    EXPECT_EQ(model[ph].p2p_bytes, func[ph].p2p_bytes);
    EXPECT_EQ(model[ph].collective_calls, func[ph].collective_calls);
    if (collective_bytes) {
      EXPECT_EQ(model[ph].collective_bytes, func[ph].collective_bytes);
    }
  }
  // Nothing travels under any other phase in a step.
  EXPECT_EQ(func.sum().p2p_messages, func[Phase::kStencil].p2p_messages);
  EXPECT_EQ(func.sum().collective_calls,
            func[Phase::kCollective].collective_calls);
}

struct MatchCase {
  std::array<int, 3> dims;
  const char* name;
  CAOptions ca{};  // CA cases only
};

void PrintTo(const MatchCase& c, std::ostream* os) { *os << c.name; }

class OriginalYZMatch : public ::testing::TestWithParam<MatchCase> {};

TEST_P(OriginalYZMatch, StencilTrafficMatchesExactly) {
  const auto c = func_config();
  const auto dims = GetParam().dims;
  const int p = dims[0] * dims[1] * dims[2];
  const PhaseRecord func = functional_record(
      p,
      [&](comm::Context& ctx) {
        return std::make_unique<OriginalCore>(c, ctx, DecompScheme::kYZ,
                                              dims);
      },
      /*warmup=*/0);
  const PhaseRecord model = modelled_record(build_original_schedule(
      model_params(c, {dims[0], dims[1], dims[2]}),
      perf::MachineModel::tianhe2()));
  // The z-line collectives carry the same bytes too.
  expect_same_traffic(model, func);
}

INSTANTIATE_TEST_SUITE_P(Decomps, OriginalYZMatch,
                         ::testing::Values(MatchCase{{1, 2, 1}, "py2"},
                                           MatchCase{{1, 4, 1}, "py4"},
                                           MatchCase{{1, 1, 2}, "pz2"},
                                           MatchCase{{1, 2, 2}, "py2pz2"},
                                           MatchCase{{1, 4, 2}, "py4pz2"}),
                         [](const ::testing::TestParamInfo<MatchCase>& i) {
                           return i.param.name;
                         });

class OriginalXYMatch : public ::testing::TestWithParam<MatchCase> {};

TEST_P(OriginalXYMatch, StencilTrafficMatchesExactly) {
  const auto c = func_config();
  const auto dims = GetParam().dims;
  const int p = dims[0] * dims[1] * dims[2];
  const PhaseRecord func = functional_record(
      p,
      [&](comm::Context& ctx) {
        return std::make_unique<OriginalCore>(c, ctx, DecompScheme::kXY,
                                              dims);
      },
      0);
  const PhaseRecord model = modelled_record(build_original_schedule(
      model_params(c, {dims[0], dims[1], dims[2]}),
      perf::MachineModel::tianhe2()));
  expect_same_traffic(model, func, /*collective_bytes=*/false);
}

INSTANTIATE_TEST_SUITE_P(Decomps, OriginalXYMatch,
                         ::testing::Values(MatchCase{{2, 1, 1}, "px2"},
                                           MatchCase{{2, 2, 1}, "px2py2"},
                                           MatchCase{{4, 2, 1}, "px4py2"}),
                         [](const ::testing::TestParamInfo<MatchCase>& i) {
                           return i.param.name;
                         });

class Original3DMatch : public ::testing::TestWithParam<MatchCase> {};

TEST_P(Original3DMatch, StencilTrafficMatchesExactly) {
  const auto c = func_config();
  const auto dims = GetParam().dims;
  const int p = dims[0] * dims[1] * dims[2];
  const PhaseRecord func = functional_record(
      p,
      [&](comm::Context& ctx) {
        return std::make_unique<OriginalCore>(c, ctx, DecompScheme::k3D,
                                              dims);
      },
      0);
  const PhaseRecord model = modelled_record(build_original_schedule(
      model_params(c, {dims[0], dims[1], dims[2]}),
      perf::MachineModel::tianhe2()));
  expect_same_traffic(model, func, /*collective_bytes=*/false);
}

INSTANTIATE_TEST_SUITE_P(Decomps, Original3DMatch,
                         ::testing::Values(MatchCase{{2, 2, 2}, "p2x2x2"},
                                           MatchCase{{2, 2, 4}, "p2x2x4"}),
                         [](const ::testing::TestParamInfo<MatchCase>& i) {
                           return i.param.name;
                         });

class CAMatch : public ::testing::TestWithParam<MatchCase> {};

TEST_P(CAMatch, StencilTrafficMatchesExactly) {
  const auto c = func_config();
  const auto dims = GetParam().dims;
  const CAOptions ca = GetParam().ca;
  const int p = dims[0] * dims[1] * dims[2];
  // Steady-state step (the first step skips the fused smoothing and seeds
  // the column anchors): warm up one step.
  const PhaseRecord func = functional_record(
      p,
      [&](comm::Context& ctx) {
        return std::make_unique<CACore>(c, ctx, dims, ca);
      },
      /*warmup=*/1);
  ScheduleParams params = model_params(c, {dims[0], dims[1], dims[2]});
  params.ca = ca;
  const PhaseRecord model = modelled_record(
      build_ca_schedule(params, perf::MachineModel::tianhe2()));
  expect_same_traffic(model, func);
}

INSTANTIATE_TEST_SUITE_P(Decomps, CAMatch,
                         ::testing::Values(MatchCase{{1, 2, 1}, "py2"},
                                           MatchCase{{1, 2, 2}, "py2pz2"}),
                         [](const ::testing::TestParamInfo<MatchCase>& i) {
                           return i.param.name;
                         });

/// Each CAOptions switch turned off on its own.
CAOptions without(bool CAOptions::*flag) {
  CAOptions o;
  o.*flag = false;
  return o;
}

INSTANTIATE_TEST_SUITE_P(
    Switches, CAMatch,
    ::testing::Values(
        MatchCase{{1, 2, 1}, "py2_no_overlap", without(&CAOptions::overlap)},
        MatchCase{{1, 2, 2}, "py2pz2_no_overlap",
                  without(&CAOptions::overlap)},
        MatchCase{{1, 2, 1}, "py2_no_approx",
                  without(&CAOptions::approximate_iteration)},
        MatchCase{{1, 2, 2}, "py2pz2_no_approx",
                  without(&CAOptions::approximate_iteration)},
        MatchCase{{1, 2, 1}, "py2_no_fuse",
                  without(&CAOptions::fuse_smoothing)},
        MatchCase{{1, 2, 2}, "py2pz2_no_fuse",
                  without(&CAOptions::fuse_smoothing)},
        MatchCase{{1, 2, 1}, "py2_extended_faces",
                  without(&CAOptions::fresh_c_on_block_face)},
        MatchCase{{1, 2, 2}, "py2pz2_extended_faces",
                  without(&CAOptions::fresh_c_on_block_face)}),
    [](const ::testing::TestParamInfo<MatchCase>& i) {
      return i.param.name;
    });

TEST(ScheduleShape, CAReducesExchangeRoundsTo2) {
  // Count waitall ops per rank per step: original 3M + 4, CA 2.
  ScheduleParams p = model_params(func_config(), {1, 4, 2});
  auto orig = build_original_schedule(p, perf::MachineModel::tianhe2());
  auto caa = build_ca_schedule(p, perf::MachineModel::tianhe2());
  auto count_waits = [](const perf::Schedule& s, int rank) {
    int n = 0;
    for (const auto& op : s.program(rank))
      if (op.kind == perf::OpKind::kWaitAll) ++n;
    return n;
  };
  EXPECT_EQ(count_waits(orig, 0), 3 * p.M + 4);
  EXPECT_EQ(count_waits(caa, 0), 2);
}

TEST(ScheduleShape, ModeledRuntimeOrderingMatchesPaper) {
  // At the paper's scale the modeled runtimes must order XY > YZ > CA.
  ScheduleParams p;
  p.mesh = {720, 360, 30};
  p.M = 3;
  p.steps = 1;
  const auto m = perf::MachineModel::tianhe2();
  p.grid = {1, 64, 8};
  const double t_yz =
      perf::simulate(build_original_schedule(p, m), m).makespan;
  const double t_ca = perf::simulate(build_ca_schedule(p, m), m).makespan;
  p.grid = {32, 16, 1};
  const double t_xy =
      perf::simulate(build_original_schedule(p, m), m).makespan;
  EXPECT_GT(t_xy, t_yz);
  EXPECT_GT(t_yz, t_ca);
}

}  // namespace
}  // namespace ca::core
