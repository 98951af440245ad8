#include "state/transforms.hpp"

#include <cmath>

#include "util/math.hpp"

namespace ca::state {

double p_factor(double ps) {
  return std::sqrt((ps - util::kPressureTop) / util::kPressureRef);
}

double p_factor_s(const util::Array2D<double>& psa,
                  const Stratification& strat, int i, int j) {
  return p_factor(strat.ps_ref() + psa(i, j));
}

double p_factor_u(const util::Array2D<double>& psa,
                  const Stratification& strat, int i, int j) {
  return 0.5 * (p_factor_s(psa, strat, i - 1, j) +
                p_factor_s(psa, strat, i, j));
}

}  // namespace ca::state
