// Discrete-event schedule simulator: timeline semantics, overlap,
// collectives, phase accounting in the shared per-rank record, and
// deadlock detection.
#include <gtest/gtest.h>

#include "perf/event_sim.hpp"
#include "perf/machine.hpp"
#include "perf/schedule.hpp"

namespace ca::perf {
namespace {

using util::Phase;

MachineModel unit_machine() {
  MachineModel m;
  m.alpha = 1.0;      // 1 s per message
  m.beta = 0.001;     // 1 ms per byte
  m.flop_time = 0.1;  // 0.1 s per flop
  m.collective_round_overhead = 0.0;
  return m;
}

TEST(EventSim, ComputeAdvancesClock) {
  Schedule s(1);
  s.add_compute(0, 50.0, Phase::kCompute);
  auto r = simulate(s, unit_machine());
  EXPECT_DOUBLE_EQ(r.makespan, 5.0);
  EXPECT_DOUBLE_EQ(r.ranks[0].phases[Phase::kCompute].seconds, 5.0);
}

TEST(EventSim, MessageLatencyAndBandwidth) {
  Schedule s(2);
  s.add_isend(0, 1, 1000, Phase::kStencil);
  s.add_irecv(1, 0, Phase::kStencil);
  s.add_waitall(1, Phase::kStencil);
  auto r = simulate(s, unit_machine());
  // Sender: alpha = 1 s.  Receiver waits until 1 + 0.001*1000 = 2 s.
  EXPECT_DOUBLE_EQ(r.ranks[0].total_seconds, 1.0);
  EXPECT_DOUBLE_EQ(r.ranks[1].total_seconds, 2.0);
  EXPECT_EQ(r.ranks[0].phases[Phase::kStencil].p2p_messages, 1u);
  EXPECT_EQ(r.ranks[0].phases[Phase::kStencil].p2p_bytes, 1000u);
}

TEST(EventSim, OverlapHidesTransferBehindCompute) {
  // Receiver computes for 10 s while a 2 s message is in flight: the wait
  // should cost nothing.
  Schedule s(2);
  s.add_isend(0, 1, 1000, Phase::kStencil);
  s.add_irecv(1, 0, Phase::kStencil);
  s.add_compute(1, 100.0, Phase::kCompute);
  s.add_waitall(1, Phase::kStencil);
  auto r = simulate(s, unit_machine());
  EXPECT_DOUBLE_EQ(r.ranks[1].total_seconds, 10.0);
  EXPECT_DOUBLE_EQ(r.ranks[1].phases[Phase::kStencil].seconds, 0.0);
}

TEST(EventSim, NoOverlapPaysFullTransfer) {
  Schedule s(2);
  s.add_isend(0, 1, 1000, Phase::kStencil);
  s.add_irecv(1, 0, Phase::kStencil);
  s.add_waitall(1, Phase::kStencil);
  s.add_compute(1, 100.0, Phase::kCompute);
  auto r = simulate(s, unit_machine());
  EXPECT_DOUBLE_EQ(r.ranks[1].total_seconds, 12.0);
  EXPECT_DOUBLE_EQ(r.ranks[1].phases[Phase::kStencil].seconds, 2.0);
}

TEST(EventSim, ExchangeIsSymmetric) {
  Schedule s(2);
  for (int r = 0; r < 2; ++r) {
    s.add_irecv(r, 1 - r, Phase::kStencil);
    s.add_isend(r, 1 - r, 500, Phase::kStencil);
    s.add_waitall(r, Phase::kStencil);
  }
  auto res = simulate(s, unit_machine());
  // Each rank: post recv, isend (1 s), wait until peer's message arrives at
  // 1 + 0.5 = 1.5 s.
  EXPECT_DOUBLE_EQ(res.ranks[0].total_seconds, 1.5);
  EXPECT_DOUBLE_EQ(res.ranks[1].total_seconds, 1.5);
}

TEST(EventSim, CollectiveSynchronizesAtMaxEntry) {
  Schedule s(3);
  const int g = s.add_group({0, 1, 2});
  s.add_compute(0, 10.0, Phase::kCompute);   // ready at 1 s
  s.add_compute(1, 100.0, Phase::kCompute);  // ready at 10 s
  // rank 2 ready at 0 s
  for (int r = 0; r < 3; ++r)
    s.add_collective(r, g, 3.0, 64, Phase::kCollective);
  auto res = simulate(s, unit_machine());
  for (int r = 0; r < 3; ++r)
    EXPECT_DOUBLE_EQ(res.ranks[static_cast<std::size_t>(r)].total_seconds,
                     13.0);
  // Rank 2 waited 13 s in the collective; rank 1 only the 3 s cost.
  EXPECT_DOUBLE_EQ(res.ranks[2].phases[Phase::kCollective].seconds, 13.0);
  EXPECT_DOUBLE_EQ(res.ranks[1].phases[Phase::kCollective].seconds, 3.0);
  EXPECT_EQ(res.ranks[0].phases[Phase::kCollective].collective_calls, 1u);
  EXPECT_EQ(res.ranks[0].phases[Phase::kCollective].collective_bytes, 64u);
}

TEST(EventSim, RepeatedCollectivesMatchInOrder) {
  Schedule s(2);
  const int g = s.add_group({0, 1});
  for (int round = 0; round < 5; ++round) {
    s.add_collective(0, g, 1.0, 8, Phase::kCollective);
    s.add_collective(1, g, 1.0, 8, Phase::kCollective);
  }
  auto res = simulate(s, unit_machine());
  EXPECT_DOUBLE_EQ(res.makespan, 5.0);
  EXPECT_EQ(res.ranks[0].phases[Phase::kCollective].collective_calls, 5u);
}

TEST(EventSim, DisjointGroupsProceedIndependently) {
  Schedule s(4);
  const int g01 = s.add_group({0, 1});
  const int g23 = s.add_group({2, 3});
  s.add_compute(2, 100.0, Phase::kCompute);
  s.add_collective(0, g01, 1.0, 8, Phase::kCollective);
  s.add_collective(1, g01, 1.0, 8, Phase::kCollective);
  s.add_collective(2, g23, 1.0, 8, Phase::kCollective);
  s.add_collective(3, g23, 1.0, 8, Phase::kCollective);
  auto res = simulate(s, unit_machine());
  EXPECT_DOUBLE_EQ(res.ranks[0].total_seconds, 1.0);
  EXPECT_DOUBLE_EQ(res.ranks[3].total_seconds, 11.0);
}

TEST(EventSim, FifoChannelOrdering) {
  // Two messages in order on one channel: the second waitall sees the
  // second arrival.
  Schedule s(2);
  s.add_isend(0, 1, 1000, Phase::kStencil);
  s.add_isend(0, 1, 3000, Phase::kStencil);
  s.add_irecv(1, 0, Phase::kStencil);
  s.add_waitall(1, Phase::kStencil);
  s.add_irecv(1, 0, Phase::kStencil);
  s.add_waitall(1, Phase::kStencil);
  auto res = simulate(s, unit_machine());
  // First arrival: 1 + 1 = 2; second sent at t=2 (after two alphas),
  // arrives 2 + 3 = 5.
  EXPECT_DOUBLE_EQ(res.ranks[1].total_seconds, 5.0);
}

TEST(EventSim, MissingMessageDeadlocks) {
  Schedule s(2);
  s.add_irecv(1, 0, Phase::kStencil);
  s.add_waitall(1, Phase::kStencil);
  EXPECT_THROW(simulate(s, unit_machine()), std::runtime_error);
}

TEST(EventSim, PartialCollectiveDeadlocks) {
  Schedule s(3);
  const int g = s.add_group({0, 1, 2});
  s.add_collective(0, g, 1.0, 8, Phase::kCollective);
  s.add_collective(1, g, 1.0, 8, Phase::kCollective);
  // rank 2 never joins
  EXPECT_THROW(simulate(s, unit_machine()), std::runtime_error);
}

TEST(EventSim, PhaseAggregates) {
  Schedule s(2);
  s.add_compute(0, 10.0, Phase::kCompute);
  s.add_compute(1, 30.0, Phase::kCompute);
  s.add_compute(1, 10.0, Phase::kStencil);
  auto res = simulate(s, unit_machine());
  EXPECT_DOUBLE_EQ(res.phase_max_seconds(Phase::kCompute), 3.0);
  EXPECT_DOUBLE_EQ(res.phase_avg_seconds(Phase::kCompute), 2.0);
  EXPECT_DOUBLE_EQ(res.phase_max_seconds(Phase::kStencil), 1.0);
  EXPECT_DOUBLE_EQ(res.phase_max_seconds(Phase::kCollective), 0.0);
  EXPECT_EQ(res.phases().size(), 2u);
}

TEST(EventSim, BadScheduleArgumentsThrow) {
  Schedule s(2);
  EXPECT_THROW(s.add_isend(0, 7, 10, Phase::kStencil), std::out_of_range);
  EXPECT_THROW(s.add_irecv(0, -2, Phase::kStencil), std::out_of_range);
  EXPECT_THROW(s.add_group({0, 5}), std::out_of_range);
  EXPECT_THROW(s.add_collective(0, 3, 1.0, 1, Phase::kStencil),
               std::out_of_range);
}

}  // namespace
}  // namespace ca::perf
