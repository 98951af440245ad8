// Shallow-water equations on the rotating sphere — the "standard
// atmosphere model with a simple form" the paper's related work uses as a
// scalability test bed (Section 2.2).  Built entirely on this library's
// substrates (lat-lon mesh, C-grid staggering, halo exchange, Fourier
// polar filtering), it doubles as an end-to-end exercise of the public
// API with independent physics.
//
// Flux-form equations (h: fluid depth, u/v: velocities; colatitude theta):
//   dh/dt = -div(h v)
//   du/dt = +f v - g d(h)/dx_eff - advection(u)
//   dv/dt = -f u - g d(h)/dy     - advection(v)
// with f = 2 Omega cos(theta), C-grid staggering (h at centers, u west,
// v south), 2nd-order differences, zero meridional flux at the poles,
// Fourier filtering of the tendencies near the poles, and the same
// 3-sub-step nonlinear integrator as the dynamical core.
#pragma once

#include <functional>

#include "comm/topology.hpp"
#include "mesh/decomp.hpp"
#include "mesh/latlon.hpp"
#include "util/array3d.hpp"

namespace ca::swe {

struct SweConfig {
  int nx = 64;
  int ny = 32;
  double dt = 120.0;          ///< time step [s]
  double mean_depth = 8000.0; ///< resting depth H [m]
  double filter_band = 1.0;   ///< polar filter band [rad from pole]
};

/// The prognostic fields of one rank's block (2-D, with halos).
struct SweState {
  util::Array2D<double> h, u, v;

  SweState() = default;
  SweState(int lnx, int lny, int halo_x, int halo_y)
      : h(lnx, lny, halo_x, halo_y),
        u(lnx, lny, halo_x, halo_y),
        v(lnx, lny, halo_x, halo_y) {}
};

enum class SweInitial {
  kRest,             ///< h = H, no flow (exact fixed point)
  kGeostrophicJet,   ///< zonal jet balanced by a height gradient
  kGravityWave,      ///< localized height bump (radiating waves)
  kRossbyHaurwitz,   ///< wavenumber-4 Rossby-Haurwitz wave (Williamson
                     ///< test 6): the pattern propagates eastward at a
                     ///< known angular speed without changing shape
};

class ShallowWaterCore {
 public:
  /// Serial construction (single block).
  explicit ShallowWaterCore(const SweConfig& config);
  /// Distributed construction over a y decomposition ({1, py, 1}).
  ShallowWaterCore(const SweConfig& config, comm::Context& ctx, int py);

  SweState make_state() const;
  void initialize(SweState& s, SweInitial kind) const;
  void step(SweState& s);

  const mesh::LatLonMesh& mesh() const { return mesh_; }
  const mesh::DomainDecomp& decomp() const { return decomp_; }

  /// Global area integral of h (total mass / density) — conserved by the
  /// flux form.  Local contribution; sum across ranks for the global.
  double local_mass(const SweState& s) const;
  /// Phase [rad] of the zonal wavenumber-m height component on the local
  /// row j (full circles required): tracks Rossby-Haurwitz propagation.
  double zonal_phase(const SweState& s, int j, int m) const;
  /// Local contribution to the total energy 0.5 h (u^2+v^2) + 0.5 g h^2.
  double local_energy(const SweState& s) const;
  double max_abs_velocity(const SweState& s) const;

  /// Exchanges/refills every halo of s (public so tests can prepare
  /// states).
  void refresh_halos(SweState& s);

 private:
  void tendency(SweState& s, SweState& tend);
  void apply_polar_filter(SweState& tend);
  void lincomb(SweState& out, const SweState& a, double c,
               const SweState& b) const;

  SweConfig config_;
  mesh::LatLonMesh mesh_;
  mesh::DomainDecomp decomp_;
  comm::Context* comm_ctx_ = nullptr;
  comm::CartTopology topo_;
  SweState tend_, eta_, mid_;
};

}  // namespace ca::swe
