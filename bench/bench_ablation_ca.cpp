// Ablation of the communication-avoiding algorithm's four design choices
// (Section 4's optimization strategies), each toggled independently at
// the paper's scale: communication/computation overlap, the approximate
// nonlinear iteration, the fused split smoothing, and block-face vs
// extended-face C collectives.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace ca;
  using namespace ca::bench;
  const EvalSetup setup = setup_from_env();
  const auto machine = perf::MachineModel::tianhe2();

  struct Variant {
    const char* name;
    core::CAOptions opts;
  };
  core::CAOptions base;
  core::CAOptions no_overlap = base;
  no_overlap.overlap = false;
  core::CAOptions no_approx = base;
  no_approx.approximate_iteration = false;
  core::CAOptions no_fuse = base;
  no_fuse.fuse_smoothing = false;
  core::CAOptions ext_faces = base;
  ext_faces.fresh_c_on_block_face = false;
  const Variant variants[] = {
      {"CA (all optimizations)", base},
      {"  - overlap off", no_overlap},
      {"  - approximate iteration off", no_approx},
      {"  - smoothing fusion off", no_fuse},
      {"  - C on extended faces (exact mode)", ext_faces},
  };

  std::printf(
      "CA design-choice ablation, 10 model years, Y-Z grids (pz = 8)\n\n");
  std::printf("%-38s", "variant");
  for (int p : setup.procs) std::printf(" %11s", ("p=" + std::to_string(p)).c_str());
  std::printf("\n");

  for (const auto& v : variants) {
    std::printf("%-38s", v.name);
    for (int p : setup.procs) {
      auto sp = setup.params(setup.yz_grid(p));
      sp.ca = v.opts;
      const auto t =
          run_scaled(setup, core::build_ca_schedule(sp, machine), machine);
      std::printf(" %11.0f", t.total);
    }
    std::printf("\n");
  }

  // Reference: the original Y-Z algorithm.
  std::printf("%-38s", "original Y-Z (for reference)");
  for (int p : setup.procs) {
    const auto t = run_scaled(
        setup,
        core::build_original_schedule(setup.params(setup.yz_grid(p)), machine),
        machine);
    std::printf(" %11.0f", t.total);
  }
  std::printf(
      "\n\nEach row is the total modeled runtime [s]; the gap between a "
      "row\nand the first row is that optimization's contribution.\n");
  return 0;
}
