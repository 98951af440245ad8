// Simulation-result reporting: summaries, imbalance, CSV emission.
#include <gtest/gtest.h>

#include <sstream>

#include "perf/report.hpp"
#include "perf/schedule.hpp"

namespace ca::perf {
namespace {

MachineModel unit_machine() {
  MachineModel m;
  m.alpha = 1.0;
  m.beta = 0.001;
  m.flop_time = 0.1;
  m.collective_round_overhead = 0.0;
  return m;
}

SimResult two_phase_result() {
  Schedule s(2);
  s.add_compute(0, 10.0, util::Phase::kCompute);   // 1 s
  s.add_compute(1, 30.0, util::Phase::kCompute);   // 3 s
  s.add_isend(0, 1, 1000, util::Phase::kStencil);  // 1 s alpha
  s.add_irecv(1, 0, util::Phase::kStencil);
  s.add_waitall(1, util::Phase::kStencil);
  return simulate(s, unit_machine());
}

TEST(Report, SummaryStatistics) {
  auto result = two_phase_result();
  auto rows = summarize(result);
  ASSERT_EQ(rows.size(), 2u);
  // Sorted by phase name: compute, stencil.
  EXPECT_EQ(rows[0].phase, "compute");
  EXPECT_EQ(rows[1].phase, "stencil");
  EXPECT_DOUBLE_EQ(rows[0].max_seconds, 3.0);
  EXPECT_DOUBLE_EQ(rows[0].avg_seconds, 2.0);
  EXPECT_DOUBLE_EQ(rows[0].imbalance, 1.5);
  EXPECT_EQ(rows[1].total.p2p_messages, 1u);
  EXPECT_EQ(rows[1].total.p2p_bytes, 1000u);
}

TEST(Report, CriticalRankIsSlowest) {
  auto result = two_phase_result();
  EXPECT_EQ(critical_rank(result), 1);
}

TEST(Report, PrintSummaryContainsPhases) {
  auto result = two_phase_result();
  std::ostringstream out;
  print_summary(out, result, "test schedule");
  const std::string text = out.str();
  EXPECT_NE(text.find("test schedule"), std::string::npos);
  EXPECT_NE(text.find("stencil"), std::string::npos);
  EXPECT_NE(text.find("compute"), std::string::npos);
  EXPECT_NE(text.find("critical rank 1"), std::string::npos);
}

TEST(Report, CsvHeaderOnceAndRows) {
  auto result = two_phase_result();
  std::ostringstream out;
  append_csv(out, "run_a", result);
  append_csv(out, "run_b", result);
  const std::string text = out.str();
  // One header, four data rows (2 phases x 2 labels).
  EXPECT_EQ(text.find("label,phase"), 0u);
  EXPECT_EQ(text.rfind("label,phase"), 0u);
  int rows = 0;
  for (char c : text)
    if (c == '\n') ++rows;
  EXPECT_EQ(rows, 1 + 4);
  EXPECT_NE(text.find("run_a,stencil"), std::string::npos);
  EXPECT_NE(text.find("run_b,compute"), std::string::npos);
}

TEST(Report, EmptyScheduleIsHarmless) {
  Schedule s(3);
  auto result = simulate(s, unit_machine());
  EXPECT_TRUE(summarize(result).empty());
  EXPECT_EQ(critical_rank(result), 0);  // all ranks at t = 0
  std::ostringstream out;
  print_summary(out, result, "empty");
  EXPECT_NE(out.str().find("empty"), std::string::npos);
}

}  // namespace
}  // namespace ca::perf
