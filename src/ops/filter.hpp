// Fourier polar filtering F~ (paper Section 3, reference [21]): a 1-D FFT
// along each high-latitude circle, damping of the high zonal wavenumbers
// whose effective grid spacing dlambda*sin(theta) violates the CFL limit
// of the mid-latitude spacing, and the inverse FFT.
//
// Damping factor for wavenumber m at a row with colatitude theta:
//   d(m, theta) = min(1, (sin(theta) * nx / (2 ny)) / sin(pi m / nx))
// applied only to rows within `filter_band` radians of a pole.
//
// Under the Y-Z decomposition each rank owns full latitude circles and the
// filter is communication-free (apply_local); under X-Y decomposition the
// lines are assembled with an allgather along the x line communicator
// (apply_distributed) — the collective the paper's Theorem 4.1 argues
// should be eliminated.  Lines are real-valued, so the transform uses the
// half-length real-input FFT (nx must be even, as every production
// lat-lon mesh is).
#pragma once

#include <cstdint>
#include <vector>

#include "comm/collectives.hpp"
#include "fft/fft.hpp"
#include "mesh/halo.hpp"
#include "ops/context.hpp"
#include "state/state.hpp"

namespace ca::ops {

class FourierFilter {
 public:
  explicit FourierFilter(const OpContext& ctx);

  /// True if the scalar row with GLOBAL index gj is inside the filter band.
  bool row_active(int gj) const;

  /// Filters all four components over `window` assuming this rank owns
  /// full x lines (px = 1).  No communication.
  void apply_local(const OpContext& ctx, state::State& s,
                   const mesh::Box& window) const;

  /// Filters one full x line in place (exposed for tests).  `sin_theta`
  /// selects the row's damping.
  void filter_line(std::span<double> line, double sin_theta) const;

  /// X-Y decomposition path: assembles full lines with one allgather over
  /// `line_x` per filter application, filters, and keeps the local
  /// segment.  All ranks of the line must call collectively with matching
  /// windows.
  void apply_distributed(const OpContext& ctx, comm::Context& comm_ctx,
                         const comm::Communicator& line_x, state::State& s,
                         const mesh::Box& window) const;

  /// Workspace heap behavior: acquires that grew a buffer's capacity vs
  /// acquires served from existing capacity.  After the first filtered
  /// line/window every acquire must be a reuse — the steady-state perf
  /// tests assert workspace_allocations() stops growing.
  std::uint64_t workspace_allocations() const { return ws_.allocations; }
  std::uint64_t workspace_reuses() const { return ws_.reuses; }

 private:
  /// One x line scheduled for filtering (distributed path).
  struct LineRef {
    int field;  // 0=U, 1=V, 2=Phi, 3=psa
    int j, k;
    double sin_theta;
  };

  /// Reusable scratch of the filter hot path: FFT spectrum + transform
  /// scratch for every line, psa row staging (apply_local), and the line
  /// assembly buffers of the distributed path.  Mutable because filtering
  /// is logically const on the filter; each rank owns its filter so there
  /// is no sharing.
  struct Workspace {
    std::vector<fft::cplx> spec;
    std::vector<fft::cplx> fft_scratch;
    std::vector<double> row;       // psa line staging
    std::vector<double> full;      // assembled full line (distributed)
    std::vector<double> local;     // packed local segments (distributed)
    std::vector<double> gathered;  // allgather target (distributed)
    std::vector<LineRef> lines;
    std::uint64_t allocations = 0;
    std::uint64_t reuses = 0;
  };

  template <typename T>
  std::span<T> acquire(std::vector<T>& buf, std::size_t n) const;

  fft::RealPlan plan_;
  int nx_ = 0;
  int ny_ = 0;
  double band_ = 0.0;
  double aspect_ = 0.0;  ///< nx / (2 ny)
  std::vector<double> sin_m_;  ///< sin(pi m / nx), m in [0, nx/2]
  mutable Workspace ws_;
};

}  // namespace ca::ops
