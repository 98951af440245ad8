// Sub-range (interior/boundary) window arithmetic for the CA core's
// communication/computation overlap: an update window splits into an inner
// box, evaluated while the halo exchange is in flight because its read
// footprint stays inside owned cells, and a deterministic set of boundary
// boxes evaluated after the exchange completes.  The split is purely
// geometric — every stencil kernel already takes an explicit window, so
// running it over {inner} ∪ boundary boxes composes bitwise to the
// full-window evaluation (the tiles partition the window and each kernel
// is a deterministic pointwise function of its inputs).
#pragma once

#include <vector>

#include "mesh/halo.hpp"

namespace ca::ops {

/// Boxes covering window \ inner in deterministic order (y-low strip,
/// y-high strip, x-low, x-high, z-low, z-high).  `inner` is clipped to
/// the window first; an empty inner yields {window}.  Together with
/// `inner` the result partitions `window` (disjoint, exact cover).
std::vector<mesh::Box> subtract_box(const mesh::Box& window,
                                    const mesh::Box& inner);

}  // namespace ca::ops
