// Fast Fourier transform for arbitrary length n: one self-sorting
// mixed-radix Stockham plan.  n is factored into radix-4 stages, then 2,
// 3 and 5 (n_x = 720 in the 50 km model is 4^2 * 3^2 * 5), with a generic
// odd-radix stage for any other prime factor.  A Plan precomputes every
// stage's twiddles for a fixed n and is reused across latitude circles
// and time steps; the transforms themselves call no transcendental
// function.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace ca::fft {

using cplx = std::complex<double>;

class Plan {
 public:
  explicit Plan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward transform (unnormalized).
  void forward(std::span<cplx> data) const;
  /// In-place inverse transform (normalized by 1/n).
  void inverse(std::span<cplx> data) const;

  /// Scratch elements one transform needs (the Stockham ping-pong
  /// buffer: n, or zero for n = 1).  The scratch overloads below are
  /// allocation-free when given a caller-owned buffer of this size.
  std::size_t scratch_size() const { return stages_.empty() ? 0 : n_; }
  void forward(std::span<cplx> data, std::span<cplx> scratch) const;
  void inverse(std::span<cplx> data, std::span<cplx> scratch) const;

 private:
  /// One radix-p pass over s interleaved sub-transforms of length p*m
  /// (s*p*m = n).
  struct Stage {
    std::size_t radix;
    std::size_t m;
    std::size_t stride;
    std::size_t twiddle;  ///< offset of the stage's (p-1)*m twiddles
    std::size_t root;     ///< offset of the p roots of unity (generic radix)
  };

  template <bool Inv>
  void transform(std::span<cplx> data, std::span<cplx> scratch) const;

  std::size_t n_ = 0;
  std::vector<Stage> stages_;
  std::vector<cplx> twiddles_;  // forward twiddles, stage by stage
  std::vector<cplx> roots_;     // forward p-th roots of generic stages
};

/// Real-input transform via the N/2 complex-FFT trick (even n only):
/// packs adjacent real pairs into complex values, transforms, and
/// unpacks with the split formula.  spectrum has n/2+1 bins (DC..Nyquist).
class RealPlan {
 public:
  explicit RealPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// spectrum[k] for k in [0, n/2]; bins 1..n/2-1 represent conjugate
  /// pairs.
  void forward(std::span<const double> input, std::span<cplx> spectrum) const;
  /// Inverse of forward (exactly; output scaled by 1/n internally).
  void inverse(std::span<const cplx> spectrum,
               std::span<double> output) const;

  /// Scratch elements one real transform needs (pair-packing buffer plus
  /// the half-length plan's own scratch).
  std::size_t scratch_size() const { return n_ / 2 + half_.scratch_size(); }
  /// Allocation-free variants: scratch must hold scratch_size() elements.
  void forward(std::span<const double> input, std::span<cplx> spectrum,
               std::span<cplx> scratch) const;
  void inverse(std::span<const cplx> spectrum, std::span<double> output,
               std::span<cplx> scratch) const;

 private:
  std::size_t n_ = 0;
  Plan half_;
  std::vector<cplx> split_;  // exp(-2*pi*i*k/n), k in [0, n/2]
};

}  // namespace ca::fft
