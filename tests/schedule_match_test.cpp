// The contract that makes the full-scale simulated figures trustworthy:
// the schedule builders must emit exactly the message counts and byte
// volumes the functional runtime produces, for both algorithms, across
// decompositions.
#include <gtest/gtest.h>

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

struct Traffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t collectives = 0;
  std::uint64_t collective_bytes = 0;
};

/// One steady-state step's traffic of the functional core.
template <typename MakeCore>
Traffic functional_traffic(int p, MakeCore make, int warmup_steps) {
  Traffic out;
  comm::Runtime::run(p, [&](comm::Context& ctx) {
    auto core = make(ctx);
    auto xi = core->make_state();
    state::InitialOptions opt;
    opt.kind = state::InitialCondition::kPlanetaryWave;
    core->initialize(xi, opt);
    for (int w = 0; w < warmup_steps; ++w) core->step(xi);
    const auto s0 = ctx.stats().grand_totals();
    core->step(xi);
    const auto s1 = ctx.stats().grand_totals();
    if (ctx.world_rank() == 0) {
      // Totals are per-rank; aggregate across ranks via a reduce.
      // Simpler: every rank reports; sum at rank 0 through the world.
    }
    std::vector<std::uint64_t> mine{
        s1.p2p_messages - s0.p2p_messages, s1.p2p_bytes - s0.p2p_bytes,
        s1.collective_calls - s0.collective_calls,
        s1.collective_bytes - s0.collective_bytes};
    // Sum across ranks (collective itself perturbs counts only after we
    // snapshot).
    std::vector<long long> in{static_cast<long long>(mine[0]),
                              static_cast<long long>(mine[1]),
                              static_cast<long long>(mine[2]),
                              static_cast<long long>(mine[3])};
    std::vector<long long> sum(4);
    comm::allreduce<long long>(ctx, ctx.world(), in, sum,
                               comm::ReduceOp::kSum);
    if (ctx.world_rank() == 0) {
      out.messages = static_cast<std::uint64_t>(sum[0]);
      out.bytes = static_cast<std::uint64_t>(sum[1]);
      out.collectives = static_cast<std::uint64_t>(sum[2]);
      out.collective_bytes = static_cast<std::uint64_t>(sum[3]);
    }
  });
  return out;
}

Traffic modeled_traffic(const perf::Schedule& schedule) {
  const auto result = perf::simulate(schedule, perf::MachineModel::tianhe2());
  Traffic t;
  t.messages = result.phase_total_messages(kPhaseStencil);
  t.bytes = result.phase_total_bytes(kPhaseStencil);
  t.collective_bytes = result.phase_total_collective_bytes(kPhaseCollective);
  for (const auto& r : result.ranks) {
    auto it = r.phases.find(kPhaseCollective);
    if (it != r.phases.end()) t.collectives += it->second.collectives;
  }
  return t;
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
  Traffic func = functional_traffic(
      p,
      [&](comm::Context& ctx) {
        return std::make_unique<OriginalCore>(c, ctx, DecompScheme::kYZ,
                                              dims);
      },
      /*warmup=*/0);
  auto sched = build_original_schedule(
      model_params(c, {dims[0], dims[1], dims[2]}),
      perf::MachineModel::tianhe2());
  Traffic model = modeled_traffic(sched);
  EXPECT_EQ(model.messages, func.messages);
  EXPECT_EQ(model.bytes, func.bytes);
  EXPECT_EQ(model.collectives, func.collectives);
  // The z-line collectives carry the same bytes.  (X-Y and 3-D are left
  // out on purpose: there the model prices the distributed filter as the
  // paper's butterfly, the functional core as an allgather.)
  EXPECT_EQ(model.collective_bytes, func.collective_bytes);
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
  Traffic func = functional_traffic(
      p,
      [&](comm::Context& ctx) {
        return std::make_unique<OriginalCore>(c, ctx, DecompScheme::kXY,
                                              dims);
      },
      0);
  auto sched = build_original_schedule(
      model_params(c, {dims[0], dims[1], dims[2]}),
      perf::MachineModel::tianhe2());
  Traffic model = modeled_traffic(sched);
  EXPECT_EQ(model.messages, func.messages);
  EXPECT_EQ(model.bytes, func.bytes);
  EXPECT_EQ(model.collectives, func.collectives);
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
  Traffic func = functional_traffic(
      p,
      [&](comm::Context& ctx) {
        return std::make_unique<OriginalCore>(c, ctx, DecompScheme::k3D,
                                              dims);
      },
      0);
  auto sched = build_original_schedule(
      model_params(c, {dims[0], dims[1], dims[2]}),
      perf::MachineModel::tianhe2());
  Traffic model = modeled_traffic(sched);
  EXPECT_EQ(model.messages, func.messages);
  EXPECT_EQ(model.bytes, func.bytes);
  EXPECT_EQ(model.collectives, func.collectives);
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
  Traffic func = functional_traffic(
      p,
      [&](comm::Context& ctx) {
        return std::make_unique<CACore>(c, ctx, dims, ca);
      },
      /*warmup=*/1);
  ScheduleParams params = model_params(c, {dims[0], dims[1], dims[2]});
  params.ca = ca;
  auto sched = build_ca_schedule(params, perf::MachineModel::tianhe2());
  Traffic model = modeled_traffic(sched);
  EXPECT_EQ(model.messages, func.messages);
  EXPECT_EQ(model.bytes, func.bytes);
  EXPECT_EQ(model.collectives, func.collectives);
  EXPECT_EQ(model.collective_bytes, func.collective_bytes);
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
