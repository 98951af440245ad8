// The IAP variable substitution (paper eq. 1):
//   U = P u,  V = P v,  Phi = P R (T - T~)/b,  p'_sa = p_s - p~_s
// with P = sqrt(p_es/p_0), p_es = p_s - p_t, evaluated at the C-grid
// position of each field (P is averaged to the U and V points).
//
// The staggered averages read the p'_sa halo, which must already be
// filled (periodic x, pole reflection, or exchanged).
#pragma once

#include "state/state.hpp"
#include "state/stratification.hpp"
#include "util/array3d.hpp"

namespace ca::state {

/// P = sqrt((p_s - p_t)/p_0) at the scalar point (i, j).
double p_factor(double ps);

/// P averaged to the U point (i-1/2, j): needs psa(i-1, j).
double p_factor_u(const util::Array2D<double>& psa,
                  const Stratification& strat, int i, int j);
/// P at the scalar point (i, j).
double p_factor_s(const util::Array2D<double>& psa,
                  const Stratification& strat, int i, int j);

}  // namespace ca::state
