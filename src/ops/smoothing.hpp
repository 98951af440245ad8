// The smoothing operator S~ (paper Section 4.3.2, Table 3):
//   P1(phi) = phi - (beta/16) dlambda^4 phi                  (U, V)
//   P2(phi) = (1 - beta/16 dlambda^4)(1 - beta/16 dtheta^4)  (Phi, p'_sa)
// where d^4 is the 4th finite difference (footprint +-2).
//
// The operator-splitting S~ = S~2 ∘ S~1 writes P2 as a sum of y-offset
// contributions  P2(phi)_j = sum_{d=-2..2} a_d * X(phi_{j+d})  with X the
// x-factor and a_{0,+-1,+-2} = {1 - 6b, 4b, -b}, b = beta/16.  Former
// smoothing (S1) is the whole S run before the halo exchange from a saved
// pre-smoothing copy, so the rows within 2 of a split side read unexchanged
// halo rows and stay provisional; later smoothing (S2) recomputes those seam
// rows, and the received halo rows, as the complete fold from the exchanged
// pre-smoothing rows, fusing the smoothing exchange into the adaptation
// exchange (Algorithm 2 lines 5-11).  S and S2 share one fold with one
// floating-point addition order, which keeps a y-decomposed trajectory
// bitwise identical to the serial one and lets checkpoints reshard across
// py changes bit-for-bit.
#pragma once

#include "mesh/halo.hpp"
#include "ops/context.hpp"
#include "state/state.hpp"

namespace ca::ops {

/// a_d coefficient of the y (theta) smoothing factor, d in [-2, 2].
double smoothing_y_coeff(const ModelParams& params, int d);

/// Full S~ over `window`: out.U/V = P1(in), out.Phi/psa = P2(in).
/// Requires +-2 halos of `in` valid in x and y around the window.
/// `out` must not alias `in`.
void apply_smoothing(const OpContext& ctx, const state::State& in,
                     state::State& out, const mesh::Box& window);

/// S~ in place over `window`, from a copy of `s`.  Kept only for the
/// replayed step in perfbench/src/dycore.cpp (ROADMAP: point the replay at
/// apply_smoothing, then delete this and its split flags, which are
/// ignored).  No core calls it: the CA core runs S1 as apply_smoothing
/// from its pre-smoothing copy, which S2 reads again after the exchange.
void apply_smoothing_former(const OpContext& ctx, state::State& s,
                            const mesh::Box& window, bool split_north,
                            bool split_south);

/// Later smoothing S2: recomputes the complete P2 fold (canonical d=-2..2
/// order, matching apply_smoothing bitwise) for
///   - own rows {0, 1} (north) / {lny-2, lny-1} (south), and
///   - received halo rows {-1, -2} / {lny, lny+1}
/// reading pre-smoothing values from `pre` (a copy of the state before S1
/// whose halo rows hold the neighbors' pre-smoothing rows to depth 4).
void apply_smoothing_later(const OpContext& ctx, const state::State& pre,
                           state::State& s, const mesh::Box& window,
                           bool split_north, bool split_south);

}  // namespace ca::ops
