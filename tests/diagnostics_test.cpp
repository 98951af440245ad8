// Zonal spectra and the polar filter.
#include <gtest/gtest.h>

#include <cmath>

#include "core/diagnostics.hpp"
#include "core/serial_core.hpp"
#include "ops/filter.hpp"
#include "util/math.hpp"

namespace ca {
namespace {

TEST(ZonalSpectrum, IdentifiesPureTone) {
  core::DycoreConfig c;
  c.nx = 48;
  c.ny = 16;
  c.nz = 4;
  core::SerialCore core(c);
  auto xi = core.make_state();
  xi.fill(0.0);
  const int tone = 7, row = 8, lev = 1;
  for (int i = 0; i < c.nx; ++i)
    xi.phi()(i, row, lev) = 3.0 * std::cos(2.0 * util::kPi * tone * i / c.nx);
  auto power = core::zonal_spectrum(core.op_context(), xi.phi(), row, lev);
  // Parseval-normalized power of A*cos: A^2/2 in the m = tone bin.
  EXPECT_NEAR(power[tone], 4.5, 1e-9);
  for (int m = 0; m <= c.nx / 2; ++m) {
    if (m == tone) continue;
    EXPECT_NEAR(power[static_cast<std::size_t>(m)], 0.0, 1e-9) << "m=" << m;
  }
}

TEST(ZonalSpectrum, FilterDampsPolarHighWavenumbers) {
  core::DycoreConfig c;
  c.nx = 48;
  c.ny = 24;
  c.nz = 4;
  core::SerialCore core(c);
  ops::FourierFilter filt(core.op_context());
  auto xi = core.make_state();
  xi.fill(0.0);
  const int polar_row = 1;  // near the north pole: active
  ASSERT_TRUE(filt.row_active(polar_row));
  const int m_high = 20;
  for (int i = 0; i < c.nx; ++i)
    xi.phi()(i, polar_row, 0) =
        std::cos(2.0 * util::kPi * m_high * i / c.nx) + 2.0;
  auto before =
      core::zonal_spectrum(core.op_context(), xi.phi(), polar_row, 0);
  filt.apply_local(core.op_context(), xi, xi.interior());
  auto after =
      core::zonal_spectrum(core.op_context(), xi.phi(), polar_row, 0);
  EXPECT_LT(after[m_high], 0.05 * before[m_high])
      << "high zonal wavenumber must be damped at a polar row";
  EXPECT_NEAR(after[0], before[0], 1e-10) << "zonal mean preserved";
}

}  // namespace
}  // namespace ca
