#include "ops/smoothing.hpp"

namespace ca::ops {
namespace {

/// P1's x factor and P2's y fold under one set of coefficients.  The fold
/// sums its five x factors in one fixed order (d = -2..2), so a seam row S2
/// recomputes is bitwise the row S computes.
struct Factors {
  explicit Factors(const ModelParams& params) : b(params.smooth_beta / 16.0) {
    for (int d = -2; d <= 2; ++d) a[d + 2] = smoothing_y_coeff(params, d);
  }

  /// (1 - b dlambda^4) f at (i, j[, k]) of a 3-D or 2-D field.
  template <class F, class... K>
  double x(const F& f, int i, int j, K... k) const {
    const double d4 = f(i - 2, j, k...) - 4.0 * f(i - 1, j, k...) +
                      6.0 * f(i, j, k...) - 4.0 * f(i + 1, j, k...) +
                      f(i + 2, j, k...);
    return f(i, j, k...) - b * d4;
  }

  /// sum_{d=-2..2} a_d x(f) at row j + d.
  template <class F, class... K>
  double y_fold(const F& f, int i, int j, K... k) const {
    double acc = 0.0;
    for (int d = -2; d <= 2; ++d) acc += a[d + 2] * x(f, i, j + d, k...);
    return acc;
  }

  double b;
  double a[5];
};

}  // namespace

double smoothing_y_coeff(const ModelParams& params, int d) {
  const double b = params.smooth_beta / 16.0;
  switch (d < 0 ? -d : d) {
    case 0:
      return 1.0 - 6.0 * b;
    case 1:
      return 4.0 * b;
    case 2:
      return -b;
    default:
      return 0.0;
  }
}

void apply_smoothing(const OpContext& ctx, const state::State& in,
                     state::State& out, const mesh::Box& window) {
  const Factors p(ctx.params);
  for (int k = window.k0; k < window.k1; ++k) {
    for (int j = window.j0; j < window.j1; ++j) {
      for (int i = window.i0; i < window.i1; ++i) {
        out.u()(i, j, k) = p.x(in.u(), i, j, k);
        out.v()(i, j, k) = p.x(in.v(), i, j, k);
        out.phi()(i, j, k) = p.y_fold(in.phi(), i, j, k);
      }
    }
  }
  for (int j = window.j0; j < window.j1; ++j)
    for (int i = window.i0; i < window.i1; ++i)
      out.psa()(i, j) = p.y_fold(in.psa(), i, j);
}

void apply_smoothing_former(const OpContext& ctx, state::State& s,
                            const mesh::Box& window, bool /*split_north*/,
                            bool /*split_south*/) {
  const state::State in = s;
  apply_smoothing(ctx, in, s, window);
}

void apply_smoothing_later(const OpContext& ctx, const state::State& pre,
                           state::State& s, const mesh::Box& window,
                           bool split_north, bool split_south) {
  // Each seam row is recomputed as the complete fold from the
  // pre-smoothing values: own rows {0,1} / {lny-2,lny-1}, which S1 smoothed
  // from unexchanged halo rows, and the received halo rows {-2,-1} /
  // {lny,lny+1}.  Reads pre rows j-2..j+2, i.e. pre halo rows to depth 4
  // for the +-2 halo rows — the fused exchange refreshes that deep.
  const Factors p(ctx.params);
  auto redo = [&](int j) {
    for (int k = window.k0; k < window.k1; ++k)
      for (int i = window.i0; i < window.i1; ++i)
        s.phi()(i, j, k) = p.y_fold(pre.phi(), i, j, k);
    for (int i = window.i0; i < window.i1; ++i)
      s.psa()(i, j) = p.y_fold(pre.psa(), i, j);
  };
  const int lny = s.lny();
  if (split_north)
    for (int j = -2; j < 2; ++j) redo(j);
  if (split_south)
    for (int j = lny - 2; j < lny + 2; ++j) redo(j);
}

}  // namespace ca::ops
