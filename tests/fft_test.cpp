// FFT correctness: fast transforms vs the O(n^2) reference, round trips,
// and the algebraic properties the Fourier filter relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "fft/dft.hpp"
#include "fft/fft.hpp"
#include "util/math.hpp"

namespace ca::fft {
namespace {

std::vector<cplx> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx{dist(rng), dist(rng)};
  return v;
}

class FftSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeSweep, ForwardMatchesReferenceDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 42 + static_cast<unsigned>(n));
  std::vector<cplx> ref(n);
  dft(x, ref, /*inverse=*/false);

  std::vector<cplx> fast = x;
  Plan plan(n);
  plan.forward(fast);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[k].real(), ref[k].real(), 1e-9 * n) << "k=" << k;
    EXPECT_NEAR(fast[k].imag(), ref[k].imag(), 1e-9 * n) << "k=" << k;
  }
}

TEST_P(FftSizeSweep, InverseMatchesReferenceDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 7 + static_cast<unsigned>(n));
  std::vector<cplx> ref(n);
  dft(x, ref, /*inverse=*/true);

  std::vector<cplx> fast = x;
  Plan plan(n);
  plan.inverse(fast);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[k].real(), ref[k].real(), 1e-10 * n);
    EXPECT_NEAR(fast[k].imag(), ref[k].imag(), 1e-10 * n);
  }
}

TEST_P(FftSizeSweep, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 1000 + static_cast<unsigned>(n));
  std::vector<cplx> y = x;
  Plan plan(n);
  plan.forward(y);
  plan.inverse(y);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(y[k].real(), x[k].real(), 1e-10 * n);
    EXPECT_NEAR(y[k].imag(), x[k].imag(), 1e-10 * n);
  }
}

TEST_P(FftSizeSweep, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 5 + static_cast<unsigned>(n));
  double time_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  std::vector<cplx> y = x;
  Plan plan(n);
  plan.forward(y);
  double freq_energy = 0;
  for (const auto& v : y) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * static_cast<double>(n));
}

// Sizes: powers of two (radix-4 stages plus at most one radix 2), the
// specialised radices 3 and 5 alone and mixed (60, 120, the paper's
// n_x = 720), and the generic odd-radix stage: primes (7, 13, 37), a
// repeated prime (49 = 7^2) and a prime among the others (210 = 2*3*5*7).
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeSweep,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{8},
                                           std::size_t{16}, std::size_t{64},
                                           std::size_t{3}, std::size_t{5},
                                           std::size_t{7}, std::size_t{13},
                                           std::size_t{37}, std::size_t{49},
                                           std::size_t{12}, std::size_t{30},
                                           std::size_t{45}, std::size_t{60},
                                           std::size_t{100}, std::size_t{120},
                                           std::size_t{210}, std::size_t{360},
                                           std::size_t{720}),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "n" + std::to_string(i.param);
                         });

TEST(Fft, LinearityProperty) {
  const std::size_t n = 48;
  auto x = random_signal(n, 1);
  auto y = random_signal(n, 2);
  const cplx a{2.0, -0.5}, b{-1.0, 3.0};
  std::vector<cplx> combo(n), fx = x, fy = y;
  for (std::size_t i = 0; i < n; ++i) combo[i] = a * x[i] + b * y[i];
  Plan plan(n);
  plan.forward(combo);
  plan.forward(fx);
  plan.forward(fy);
  for (std::size_t k = 0; k < n; ++k) {
    const cplx expect = a * fx[k] + b * fy[k];
    EXPECT_NEAR(combo[k].real(), expect.real(), 1e-9 * n);
    EXPECT_NEAR(combo[k].imag(), expect.imag(), 1e-9 * n);
  }
}

TEST(Fft, PureToneHasSingleBin) {
  const std::size_t n = 720;
  const std::size_t tone = 37;
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = 2.0 * util::kPi * static_cast<double>(tone * i) /
                         static_cast<double>(n);
    x[i] = cplx{std::cos(angle), std::sin(angle)};
  }
  Plan plan(n);
  plan.forward(x);
  for (std::size_t k = 0; k < n; ++k) {
    const double expect = (k == tone) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(x[k]), expect, 1e-7);
  }
}

TEST(Fft, RealInputHasConjugateSymmetry) {
  const std::size_t n = 90;
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx{dist(rng), 0.0};
  Plan plan(n);
  plan.forward(x);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), x[n - k].real(), 1e-10);
    EXPECT_NEAR(x[k].imag(), -x[n - k].imag(), 1e-10);
  }
}

TEST(Fft, ScratchOverloadsMatchAllocatingBitwise) {
  for (std::size_t n : {std::size_t{1}, std::size_t{49}, std::size_t{60},
                        std::size_t{128}, std::size_t{720}}) {
    Plan plan(n);
    const auto x = random_signal(n, 300 + static_cast<unsigned>(n));
    // Stale scratch contents must not leak into the result.
    std::vector<cplx> scratch(plan.scratch_size(), cplx{7.0, -7.0});
    auto fa = x, fs = x;
    plan.forward(fa);
    plan.forward(fs, scratch);
    auto ia = x, is = x;
    plan.inverse(ia);
    plan.inverse(is, scratch);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(fa[k], fs[k]) << "n=" << n << " k=" << k;
      EXPECT_EQ(ia[k], is[k]) << "n=" << n << " k=" << k;
    }
  }
  for (std::size_t n : {std::size_t{24}, std::size_t{74}, std::size_t{120}}) {
    RealPlan plan(n);
    std::vector<double> x(n), ba(n), bs(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = std::sin(0.37 * static_cast<double>(i)) + 0.1 * (i % 7);
    std::vector<cplx> sa(n / 2 + 1), ss(n / 2 + 1);
    std::vector<cplx> scratch(plan.scratch_size(), cplx{7.0, -7.0});
    plan.forward(x, sa);
    plan.forward(x, ss, scratch);
    plan.inverse(sa, ba);
    plan.inverse(ss, bs, scratch);
    for (std::size_t k = 0; k <= n / 2; ++k)
      EXPECT_EQ(sa[k], ss[k]) << "n=" << n << " k=" << k;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(ba[i], bs[i]) << "n=" << n << " i=" << i;
  }
}

TEST(Fft, ZeroLengthThrows) { EXPECT_THROW(Plan plan(0), std::invalid_argument); }

TEST(Fft, PlanIsReusable) {
  const std::size_t n = 720;
  Plan plan(n);
  for (int trial = 0; trial < 3; ++trial) {
    auto x = random_signal(n, 100 + static_cast<unsigned>(trial));
    auto y = x;
    plan.forward(y);
    plan.inverse(y);
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_NEAR(std::abs(y[k] - x[k]), 0.0, 1e-8);
  }
}

class RealFftSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealFftSweep, MatchesComplexTransform) {
  const std::size_t n = GetParam();
  std::mt19937 rng(17 + static_cast<unsigned>(n));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> x(n);
  for (auto& v : x) v = dist(rng);

  std::vector<cplx> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = cplx{x[i], 0.0};
  Plan cplan(n);
  cplan.forward(ref);

  RealPlan rplan(n);
  std::vector<cplx> spec(n / 2 + 1);
  rplan.forward(x, spec);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    EXPECT_NEAR(spec[k].real(), ref[k].real(), 1e-9 * n) << "k=" << k;
    EXPECT_NEAR(spec[k].imag(), ref[k].imag(), 1e-9 * n) << "k=" << k;
  }
}

TEST_P(RealFftSweep, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  std::mt19937 rng(29 + static_cast<unsigned>(n));
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> x(n), back(n);
  for (auto& v : x) v = dist(rng);
  RealPlan plan(n);
  std::vector<cplx> spec(n / 2 + 1);
  plan.forward(x, spec);
  plan.inverse(spec, back);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(back[i], x[i], 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RealFftSweep,
                         ::testing::Values(std::size_t{2}, std::size_t{4},
                                           std::size_t{8}, std::size_t{64},
                                           std::size_t{6}, std::size_t{10},
                                           std::size_t{24}, std::size_t{74},
                                           std::size_t{90}, std::size_t{120},
                                           std::size_t{128},
                                           std::size_t{720}),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "n" + std::to_string(i.param);
                         });

TEST(RealFft, OddOrTinySizesThrow) {
  EXPECT_THROW(RealPlan plan(5), std::invalid_argument);
  EXPECT_THROW(RealPlan plan(1), std::invalid_argument);
  EXPECT_THROW(RealPlan plan(0), std::invalid_argument);
}

}  // namespace
}  // namespace ca::fft
