#include "fft/fft.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/math.hpp"

namespace ca::fft {
namespace {

// Stockham autosort, decimation in frequency.  A radix-p stage splits each
// length-L = p*m sub-transform (s of them, interleaved at stride s) as
//   j = j1 + m*r,  k = p*k1 + k2:
//   y[q + s*(p*j1 + k2)] = w_L^(j1*k2) * sum_r x[q + s*(j1 + m*r)] w_p^(r*k2)
// and hands s*p sub-transforms of length m to the next stage.  After the
// last stage the output is in natural order: no bit reversal.

/// a * b without the NaN-recovery call of std::complex's operator*.
inline cplx mul(cplx a, cplx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// Forward tables hold exp(-...); the inverse uses their conjugates.
template <bool Inv>
inline cplx dir(cplx w) {
  return Inv ? std::conj(w) : w;
}

/// Multiplication by the quarter-turn root: -i*a forward, i*a inverse.
template <bool Inv>
inline cplx rot(cplx a) {
  return Inv ? cplx{-a.imag(), a.real()} : cplx{a.imag(), -a.real()};
}

// Radix-3 and radix-5 butterfly constants (exact to double precision).
constexpr double kSin60 = 0.86602540378443864676;   // sin(2 pi / 3)
constexpr double kCos72 = 0.30901699437494742410;   // cos(2 pi / 5)
constexpr double kCos144 = -0.80901699437494742410; // cos(4 pi / 5)
constexpr double kSin72 = 0.95105651629515357212;   // sin(2 pi / 5)
constexpr double kSin144 = 0.58778525229247312917;  // sin(4 pi / 5)

/// In-place length-P DFT of a[0..P) (P = 2, 3, 4, 5).
template <std::size_t P, bool Inv>
inline void butterfly(cplx* a) {
  if constexpr (P == 2) {
    const cplx t = a[0] - a[1];
    a[0] += a[1];
    a[1] = t;
  } else if constexpr (P == 3) {
    const cplx t = a[1] + a[2];
    const cplx u = a[0] - 0.5 * t;
    const cplx v = kSin60 * rot<Inv>(a[1] - a[2]);
    a[0] += t;
    a[1] = u + v;
    a[2] = u - v;
  } else if constexpr (P == 4) {
    const cplx t0 = a[0] + a[2], t1 = a[0] - a[2];
    const cplx t2 = a[1] + a[3], t3 = rot<Inv>(a[1] - a[3]);
    a[0] = t0 + t2;
    a[1] = t1 + t3;
    a[2] = t0 - t2;
    a[3] = t1 - t3;
  } else {
    static_assert(P == 5);
    const cplx t1 = a[1] + a[4], t2 = a[2] + a[3];
    const cplx d1 = a[1] - a[4], d2 = a[2] - a[3];
    const cplx m1 = a[0] + kCos72 * t1 + kCos144 * t2;
    const cplx m2 = a[0] + kCos144 * t1 + kCos72 * t2;
    const cplx n1 = rot<Inv>(kSin72 * d1 + kSin144 * d2);
    const cplx n2 = rot<Inv>(kSin144 * d1 - kSin72 * d2);
    a[0] += t1 + t2;
    a[1] = m1 + n1;
    a[2] = m2 + n2;
    a[3] = m2 - n2;
    a[4] = m1 - n1;
  }
}

/// One stage with a specialised radix P.  tw holds (P-1) twiddles per j1.
template <std::size_t P, bool Inv>
void pass(std::size_t m, std::size_t s, const cplx* tw, const cplx* x,
          cplx* y) {
  for (std::size_t j = 0; j < m; ++j) {
    const cplx* w = tw + j * (P - 1);
    for (std::size_t q = 0; q < s; ++q) {
      cplx a[P];
      for (std::size_t r = 0; r < P; ++r) a[r] = x[q + s * (j + r * m)];
      butterfly<P, Inv>(a);
      cplx* out = y + q + s * P * j;
      out[0] = a[0];
      if (j == 0) {  // every twiddle is 1
        for (std::size_t k = 1; k < P; ++k) out[s * k] = a[k];
      } else {
        for (std::size_t k = 1; k < P; ++k)
          out[s * k] = mul(a[k], dir<Inv>(w[k - 1]));
      }
    }
  }
}

/// One stage with any odd radix p: a direct O(p^2) DFT per butterfly
/// against the stage's p-th roots of unity.
template <bool Inv>
void pass_generic(std::size_t p, std::size_t m, std::size_t s,
                  const cplx* tw, const cplx* root, const cplx* x, cplx* y) {
  for (std::size_t j = 0; j < m; ++j) {
    const cplx* w = tw + j * (p - 1);
    for (std::size_t q = 0; q < s; ++q) {
      const cplx* in = x + q + s * j;
      cplx* out = y + q + s * p * j;
      for (std::size_t k = 0; k < p; ++k) {
        cplx acc = in[0];
        std::size_t idx = 0;  // r*k mod p
        for (std::size_t r = 1; r < p; ++r) {
          idx += k;
          if (idx >= p) idx -= p;
          acc += mul(in[s * m * r], dir<Inv>(root[idx]));
        }
        out[s * k] = (k == 0 || j == 0) ? acc : mul(acc, dir<Inv>(w[k - 1]));
      }
    }
  }
}

/// exp(-2*pi*i*num/den), with num reduced mod den so the angle stays
/// in [0, 2*pi).
cplx unit_root(std::size_t num, std::size_t den) {
  const double angle = -2.0 * util::kPi * static_cast<double>(num % den) /
                       static_cast<double>(den);
  return {std::cos(angle), std::sin(angle)};
}

/// Radices of n in stage order: 4s, one 2, 3s, 5s, then other primes.
std::vector<std::size_t> factor(std::size_t n) {
  std::vector<std::size_t> radices;
  for (std::size_t p : {4, 2, 3, 5}) {
    while (n % p == 0) {
      radices.push_back(p);
      n /= p;
    }
  }
  for (std::size_t p = 7; n > 1; p += 2) {
    while (n % p == 0) {
      radices.push_back(p);
      n /= p;
    }
    if (p * p > n && n > 1) {
      radices.push_back(n);
      break;
    }
  }
  return radices;
}

}  // namespace

Plan::Plan(std::size_t n) : n_(n) {
  if (n == 0) throw std::invalid_argument("fft::Plan: n must be positive");
  std::size_t stride = 1;
  for (std::size_t p : factor(n)) {
    const std::size_t len = n / stride;  // sub-transform length p*m
    Stage st{p, len / p, stride, twiddles_.size(), roots_.size()};
    for (std::size_t j = 0; j < st.m; ++j)
      for (std::size_t k = 1; k < p; ++k)
        twiddles_.push_back(unit_root(j * k, len));
    if (p > 5)
      for (std::size_t r = 0; r < p; ++r) roots_.push_back(unit_root(r, p));
    stages_.push_back(st);
    stride *= p;
  }
}

template <bool Inv>
void Plan::transform(std::span<cplx> data, std::span<cplx> scratch) const {
  assert(data.size() == n_);
  if (stages_.empty()) return;
  assert(scratch.size() >= n_);
  // Stages ping-pong between the two buffers; an odd stage count starts
  // from a copy in scratch so the last stage writes into data.
  cplx* x = data.data();
  cplx* y = scratch.data();
  if (stages_.size() % 2 == 1) {
    std::copy(data.begin(), data.end(), scratch.begin());
    std::swap(x, y);
  }
  for (const Stage& st : stages_) {
    const cplx* tw = twiddles_.data() + st.twiddle;
    switch (st.radix) {
      case 2: pass<2, Inv>(st.m, st.stride, tw, x, y); break;
      case 3: pass<3, Inv>(st.m, st.stride, tw, x, y); break;
      case 4: pass<4, Inv>(st.m, st.stride, tw, x, y); break;
      case 5: pass<5, Inv>(st.m, st.stride, tw, x, y); break;
      default:
        pass_generic<Inv>(st.radix, st.m, st.stride, tw,
                          roots_.data() + st.root, x, y);
    }
    std::swap(x, y);
  }
}

void Plan::forward(std::span<cplx> data) const {
  std::vector<cplx> scratch(scratch_size());
  forward(data, scratch);
}

void Plan::inverse(std::span<cplx> data) const {
  std::vector<cplx> scratch(scratch_size());
  inverse(data, scratch);
}

void Plan::forward(std::span<cplx> data, std::span<cplx> scratch) const {
  transform<false>(data, scratch);
}

void Plan::inverse(std::span<cplx> data, std::span<cplx> scratch) const {
  transform<true>(data, scratch);
  const double scale = 1.0 / static_cast<double>(n_);
  for (auto& v : data) v *= scale;
}

RealPlan::RealPlan(std::size_t n) : n_(n), half_(n / 2) {
  if (n < 2 || n % 2 != 0)
    throw std::invalid_argument("fft::RealPlan: n must be even and >= 2");
  split_.resize(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const double angle =
        -2.0 * util::kPi * static_cast<double>(k) / static_cast<double>(n);
    split_[k] = cplx{std::cos(angle), std::sin(angle)};
  }
}

void RealPlan::forward(std::span<const double> input,
                       std::span<cplx> spectrum) const {
  std::vector<cplx> scratch(scratch_size());
  forward(input, spectrum, scratch);
}

void RealPlan::forward(std::span<const double> input,
                       std::span<cplx> spectrum,
                       std::span<cplx> scratch) const {
  assert(input.size() == n_);
  assert(spectrum.size() == n_ / 2 + 1);
  assert(scratch.size() == scratch_size());
  const std::size_t h = n_ / 2;
  std::span<cplx> z = scratch.first(h);
  for (std::size_t m = 0; m < h; ++m)
    z[m] = cplx{input[2 * m], input[2 * m + 1]};
  half_.forward(z, scratch.subspan(h));
  // Split: X[k] = E[k] + W^k O[k] with E/O recovered from Z and its
  // reflected conjugate (indices taken mod h).
  for (std::size_t k = 0; k <= h; ++k) {
    const cplx zk = z[k == h ? 0 : k];
    const cplx zr = std::conj(z[k == 0 ? 0 : h - k]);
    const cplx even = 0.5 * (zk + zr);
    const cplx d = zk - zr;
    const cplx odd{0.5 * d.imag(), -0.5 * d.real()};  // -i/2 * d
    spectrum[k] = even + mul(split_[k], odd);
  }
}

void RealPlan::inverse(std::span<const cplx> spectrum,
                       std::span<double> output) const {
  std::vector<cplx> scratch(scratch_size());
  inverse(spectrum, output, scratch);
}

void RealPlan::inverse(std::span<const cplx> spectrum,
                       std::span<double> output,
                       std::span<cplx> scratch) const {
  assert(spectrum.size() == n_ / 2 + 1);
  assert(output.size() == n_);
  assert(scratch.size() == scratch_size());
  const std::size_t h = n_ / 2;
  std::span<cplx> z = scratch.first(h);
  for (std::size_t k = 0; k < h; ++k) {
    const cplx xk = spectrum[k];
    const cplx xr = std::conj(spectrum[h - k]);
    const cplx even = 0.5 * (xk + xr);
    const cplx odd = 0.5 * mul(std::conj(split_[k]), xk - xr);
    z[k] = even + cplx{-odd.imag(), odd.real()};  // even + i*odd
  }
  half_.inverse(z, scratch.subspan(h));
  for (std::size_t m = 0; m < h; ++m) {
    output[2 * m] = z[m].real();
    output[2 * m + 1] = z[m].imag();
  }
}

}  // namespace ca::fft
