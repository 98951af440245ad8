// Section 5.3 + Theorems 4.1/4.2: the paper's asymptotic cost formulas
// evaluated against the event-simulated per-rank traffic, and the lower
// bounds that drive the decomposition choice.
#include <cstdio>

#include "bench_common.hpp"
#include "perf/lower_bounds.hpp"

int main() {
  using namespace ca;
  using namespace ca::bench;
  const EvalSetup setup = setup_from_env();
  const auto machine = perf::MachineModel::tianhe2();
  const long long K = setup.steps();

  std::printf("Theorem 4.1 (F lower bound) and 4.2 (C lower bound)\n");
  std::printf("%6s %22s %22s\n", "px/pz", "W_F [words/rank]",
              "W_C [words total]");
  for (int q : {1, 2, 4, 8}) {
    std::printf("%6d %22.0f %22.0f\n", q,
                perf::fourier_filter_lower_bound_words(setup.mesh.nx, q) *
                    static_cast<double>(setup.mesh.ny * setup.mesh.nz),
                perf::summation_lower_bound_words(setup.mesh, q));
  }
  std::printf(
      "-> eta_x = 0 at px = 1 cancels the dominant term: the Y-Z\n"
      "   decomposition makes Fourier filtering communication-free.\n\n");

  std::printf(
      "Section 5.3: per-rank words W and synchronizations S over K = %lld "
      "steps (M = %d)\n\n",
      K, setup.M);
  std::printf("%6s | %12s %12s %12s | %12s %12s %12s\n", "p", "W_XY",
              "W_YZ", "W_CA", "S_XY", "S_YZ", "S_CA");
  for (int p : setup.procs) {
    const auto yz = setup.yz_grid(p);
    const auto xy = setup.xy_grid(p);
    std::printf("%6d | %12.3e %12.3e %12.3e | %12.3e %12.3e %12.3e\n", p,
                perf::w_xy(setup.mesh, xy, setup.M, K),
                perf::w_yz(setup.mesh, yz, setup.M, K),
                perf::w_ca(setup.mesh, yz, setup.M, K),
                perf::s_xy(setup.M, K), perf::s_yz(setup.M, K),
                perf::s_ca(setup.M, K));
  }
  std::printf(
      "-> W_XY >> W_YZ > W_CA and S_XY > S_YZ > S_CA, with W_CA/W_YZ = 2/3\n"
      "   exactly (the approximate nonlinear iteration).\n\n");

  // Cross-check the W ordering against the event-simulated volumes of one
  // step at p = 512.
  const int p = 512;
  auto count = [&](const perf::Schedule& s) {
    const auto r = perf::simulate(s, machine);
    return static_cast<double>(
        r.phase_total(util::Phase::kStencil).p2p_bytes +
        r.phase_total(util::Phase::kCollective).collective_bytes);
  };
  const double v_xy = count(
      core::build_original_schedule(setup.params(setup.xy_grid(p)), machine));
  const double v_yz = count(
      core::build_original_schedule(setup.params(setup.yz_grid(p)), machine));
  const double v_ca = count(
      core::build_ca_schedule(setup.params(setup.yz_grid(p)), machine));
  std::printf(
      "Simulated one-step communication volume at p = %d [MB]:\n"
      "  XY %.1f   YZ %.1f   CA %.1f  (ordering matches Section 5.3: "
      "%s)\n",
      p, v_xy / 1e6, v_yz / 1e6, v_ca / 1e6,
      (v_xy > v_yz && v_yz > v_ca) ? "yes" : "NO");
  return 0;
}
