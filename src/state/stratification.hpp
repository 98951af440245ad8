// Standard stratification of the IAP model: the reference temperature
// T~(p) and surface pressure p~_s subtracted from the full fields by the
// transform (1).  We use the ICAO-like standard atmosphere: a linear-lapse
// troposphere over an isothermal stratosphere, flat terrain.
#pragma once

#include <vector>

#include "mesh/sigma.hpp"
#include "util/math.hpp"

namespace ca::state {

class Stratification {
 public:
  explicit Stratification(const mesh::SigmaLevels& levels);

  /// Reference surface pressure p~_s [Pa] (flat terrain).
  double ps_ref() const { return ps_ref_; }
  /// p_es = p~_s - p_t of the reference state.
  double pes_ref() const { return ps_ref_ - util::kPressureTop; }
  /// Reference P = sqrt(p_es / p_0).
  double p_factor_ref() const { return p_factor_ref_; }

  /// Reference temperature at full level k [K].
  double t_ref(int k) const { return t_ref_[static_cast<std::size_t>(k)]; }

  /// Standard-atmosphere temperature at pressure p [Pa].
  static double t_standard(double p);

  /// Surface air density of the standard atmosphere rho~_sa = p~_s/(R T~_s).
  double rho_sa() const { return ps_ref_ / (util::kRd * t_surface_); }

  int nz() const { return static_cast<int>(t_ref_.size()); }

 private:
  double ps_ref_ = util::kPressureRef;
  double p_factor_ref_ = 0.0;
  double t_surface_ = 0.0;
  std::vector<double> t_ref_;
};

}  // namespace ca::state
