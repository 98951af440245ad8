// Analytic cost formulas and lower bounds.
#include <gtest/gtest.h>

#include <cmath>

#include "perf/cost.hpp"
#include "perf/lower_bounds.hpp"
#include "perf/machine.hpp"

namespace ca::perf {
namespace {

TEST(Cost, RingAllreduceSinglerankIsFree) {
  MachineModel m = MachineModel::tianhe2();
  EXPECT_DOUBLE_EQ(ring_allreduce_time(m, 1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(recursive_doubling_allreduce_time(m, 1, 1 << 20), 0.0);
}

TEST(Cost, RingBeatsRecursiveDoublingForLargeVectors) {
  MachineModel m = MachineModel::tianhe2();
  const int p = 16;
  const std::size_t big = 64u << 20;
  EXPECT_LT(ring_allreduce_time(m, p, big),
            recursive_doubling_allreduce_time(m, p, big));
}

TEST(Cost, RecursiveDoublingBeatsRingForSmallVectors) {
  MachineModel m = MachineModel::tianhe2();
  const int p = 64;
  const std::size_t small = 64;
  EXPECT_LT(recursive_doubling_allreduce_time(m, p, small),
            ring_allreduce_time(m, p, small));
}

TEST(Cost, AllreduceAutoPicksMinimum) {
  MachineModel m = MachineModel::tianhe2();
  for (int p : {2, 8, 64, 512}) {
    for (std::size_t b : {std::size_t{64}, std::size_t{1} << 22}) {
      EXPECT_DOUBLE_EQ(allreduce_time(m, p, b),
                       std::min(ring_allreduce_time(m, p, b),
                                recursive_doubling_allreduce_time(m, p, b)));
    }
  }
}

TEST(Cost, RingVolumeFormula) {
  EXPECT_EQ(ring_allreduce_bytes(1, 1000), 0u);
  EXPECT_EQ(ring_allreduce_bytes(4, 1000), 2u * 3u * 1000u / 4u);
}

TEST(LowerBounds, Theorem41VanishesAtPxOne) {
  EXPECT_DOUBLE_EQ(fourier_filter_lower_bound_words(720, 1), 0.0);
  EXPECT_GT(fourier_filter_lower_bound_words(720, 2), 0.0);
}

TEST(LowerBounds, Theorem41DecreasesWithMoreRanksUntilSaturation) {
  const double w2 = fourier_filter_lower_bound_words(1 << 16, 2);
  const double w8 = fourier_filter_lower_bound_words(1 << 16, 8);
  EXPECT_GT(w2, w8);
}

TEST(LowerBounds, Theorem42LinearInPzMinusOne) {
  MeshShape mesh{720, 360, 30};
  EXPECT_DOUBLE_EQ(summation_lower_bound_words(mesh, 1), 0.0);
  const double w2 = summation_lower_bound_words(mesh, 2);
  const double w5 = summation_lower_bound_words(mesh, 5);
  EXPECT_DOUBLE_EQ(w2, 2.0 * 1 * 720 * 360);
  EXPECT_DOUBLE_EQ(w5, 4.0 * w2 / 1.0 / 2.0 * 2.0);  // 2*(5-1)*nx*ny
}

TEST(LowerBounds, FourierTermDominatesSummationTerm) {
  // The Section 4.2 argument: nx ny nz log nx / (px log(nx/px)) >>
  // (pz-1) nx ny for practical shapes — the F cost is the high-order term.
  MeshShape mesh{720, 360, 30};
  const int px = 2, pz = 2;
  const double f_total =
      fourier_filter_lower_bound_words(mesh.nx, px) *
      static_cast<double>(mesh.ny) * static_cast<double>(mesh.nz);
  const double c_total = summation_lower_bound_words(mesh, pz);
  EXPECT_GT(f_total, 5.0 * c_total);
}

TEST(LowerBounds, Section53Ordering) {
  // W_XY >> W_YZ > W_CA and S_XY > S_YZ > S_CA for the paper's shapes.
  MeshShape mesh{720, 360, 30};
  const int M = 3;
  const long long K = 1000;
  ProcGrid yz{1, 128, 8};
  ProcGrid xy{32, 32, 1};
  EXPECT_GT(w_xy(mesh, xy, M, K), w_yz(mesh, yz, M, K));
  EXPECT_GT(w_yz(mesh, yz, M, K), w_ca(mesh, yz, M, K));
  EXPECT_GT(s_xy(M, K), s_yz(M, K));
  EXPECT_GT(s_yz(M, K), s_ca(M, K));
}

TEST(LowerBounds, CaSavesOneThirdOfYzWords) {
  MeshShape mesh{720, 360, 30};
  ProcGrid yz{1, 64, 16};
  const double ratio = w_ca(mesh, yz, 3, 100) / w_yz(mesh, yz, 3, 100);
  EXPECT_NEAR(ratio, 2.0 / 3.0, 1e-12);
}

TEST(LowerBounds, SyncCountsMatchPaperFormulas) {
  EXPECT_DOUBLE_EQ(s_ca(3, 10), (2 * 3 + 2) * 10.0);
  EXPECT_DOUBLE_EQ(s_yz(3, 10), (6 * 3 + 4) * 10.0);
  EXPECT_DOUBLE_EQ(s_xy(3, 10), (9 * 3 + 10) * 10.0);
}

TEST(LowerBounds, InvalidArgsThrow) {
  EXPECT_THROW(fourier_filter_lower_bound_words(1, 1),
               std::invalid_argument);
  EXPECT_THROW(fourier_filter_lower_bound_words(720, 0),
               std::invalid_argument);
  EXPECT_THROW(summation_lower_bound_words(MeshShape{1, 1, 1}, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace ca::perf
