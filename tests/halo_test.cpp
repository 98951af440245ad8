// Halo boxes, pack/unpack round trips, and physical boundary fills.
#include <gtest/gtest.h>

#include "mesh/halo.hpp"
#include "util/array3d.hpp"

namespace ca::mesh {
namespace {

using util::Array3D;
using util::Halo3;

Array3D<double> labeled(int nx, int ny, int nz, Halo3 halo) {
  Array3D<double> a(nx, ny, nz, halo);
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        a(i, j, k) = i + 100.0 * j + 10000.0 * k;
  return a;
}

TEST(HaloBox, SendRecvGeometry) {
  // Toward +y neighbor with width 2: send the last 2 owned rows, receive
  // into rows [ny, ny+2).
  Box s = send_box(8, 6, 4, 0, 1, 0, 0, 2, 0);
  EXPECT_EQ(s, (Box{0, 8, 4, 6, 0, 4}));
  Box r = recv_box(8, 6, 4, 0, 1, 0, 0, 2, 0);
  EXPECT_EQ(r, (Box{0, 8, 6, 8, 0, 4}));
  // Corner toward (-y, +z).
  Box c = send_box(8, 6, 4, 0, -1, 1, 0, 2, 1);
  EXPECT_EQ(c, (Box{0, 8, 0, 2, 3, 4}));
  Box cr = recv_box(8, 6, 4, 0, -1, 1, 0, 2, 1);
  EXPECT_EQ(cr, (Box{0, 8, -2, 0, 4, 5}));
}

TEST(HaloBox, VolumeAndEmpty) {
  EXPECT_EQ((Box{0, 2, 0, 3, 0, 4}).volume(), 24);
  EXPECT_TRUE((Box{0, 0, 0, 3, 0, 4}).empty());
  EXPECT_FALSE((Box{0, 1, 0, 1, 0, 1}).empty());
}

TEST(HaloPack, RoundTripThroughBuffer) {
  auto src = labeled(6, 5, 4, {1, 2, 2});
  Array3D<double> dst(6, 5, 4, {1, 2, 2});
  // Simulate sending the +y strip of src into the -y halo of dst (as a
  // south neighbor would receive it).
  Box s = send_box(6, 5, 4, 0, 1, 0, 0, 2, 0);
  Box r = recv_box(6, 5, 4, 0, -1, 0, 0, 2, 0);
  ASSERT_EQ(s.volume(), r.volume());
  std::vector<double> buf(static_cast<std::size_t>(s.volume()));
  pack_box(src, s, buf);
  unpack_box(dst, r, buf);
  for (int k = 0; k < 4; ++k)
    for (int d = 0; d < 2; ++d)
      for (int i = 0; i < 6; ++i)
        EXPECT_DOUBLE_EQ(dst(i, -2 + d, k), src(i, 3 + d, k));
}

TEST(HaloPack, MismatchedBufferThrows) {
  Array3D<double> a(4, 4, 4, {1, 1, 1});
  std::vector<double> buf(5, 0.0);
  EXPECT_THROW(unpack_box(a, Box{0, 2, 0, 2, 0, 2}, buf),
               std::invalid_argument);
}

TEST(PoleFill, NorthSymmetricReflectsRows) {
  auto a = labeled(4, 6, 3, {0, 2, 0});
  fill_pole_north(a, 2, PoleParity::kSymmetric);
  for (int k = 0; k < 3; ++k)
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(a(i, -1, k), a(i, 0, k));
      EXPECT_DOUBLE_EQ(a(i, -2, k), a(i, 1, k));
    }
}

TEST(PoleFill, SouthSymmetricReflectsRows) {
  auto a = labeled(4, 6, 3, {0, 2, 0});
  fill_pole_south(a, 2, PoleParity::kSymmetric);
  for (int k = 0; k < 3; ++k)
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(a(i, 6, k), a(i, 5, k));
      EXPECT_DOUBLE_EQ(a(i, 7, k), a(i, 4, k));
    }
}

TEST(PoleFill, NorthAntisymmetricZeroesPoleEdge) {
  auto a = labeled(4, 6, 3, {0, 3, 0});
  // Shift values so the interior is nonzero everywhere.
  for (int k = 0; k < 3; ++k)
    for (int j = 0; j < 6; ++j)
      for (int i = 0; i < 4; ++i) a(i, j, k) += 1.0;
  fill_pole_north(a, 3, PoleParity::kAntisymmetric);
  for (int k = 0; k < 3; ++k)
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(a(i, -1, k), 0.0) << "pole edge flux must vanish";
      EXPECT_DOUBLE_EQ(a(i, -2, k), -a(i, 0, k));
      EXPECT_DOUBLE_EQ(a(i, -3, k), -a(i, 1, k));
    }
}

TEST(PoleFill, SouthAntisymmetricZeroesOwnedPoleRow) {
  auto a = labeled(4, 6, 3, {0, 2, 0});
  for (int k = 0; k < 3; ++k)
    for (int j = 0; j < 6; ++j)
      for (int i = 0; i < 4; ++i) a(i, j, k) += 1.0;
  fill_pole_south(a, 2, PoleParity::kAntisymmetric);
  for (int k = 0; k < 3; ++k)
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(a(i, 5, k), 0.0)
          << "owned row ny-1 is the south pole edge";
      EXPECT_DOUBLE_EQ(a(i, 6, k), -a(i, 4, k));
      EXPECT_DOUBLE_EQ(a(i, 7, k), -a(i, 3, k));
    }
}

TEST(PeriodicFill, WrapsBothSides) {
  auto a = labeled(8, 3, 2, {3, 0, 0});
  fill_x_periodic(a, 3);
  for (int k = 0; k < 2; ++k)
    for (int j = 0; j < 3; ++j) {
      for (int d = 1; d <= 3; ++d) {
        EXPECT_DOUBLE_EQ(a(-d, j, k), a(8 - d, j, k));
        EXPECT_DOUBLE_EQ(a(7 + d, j, k), a(d - 1, j, k));
      }
    }
}

TEST(ZFill, ZeroGradientAtTopAndBottom) {
  auto a = labeled(4, 3, 5, {0, 0, 2});
  fill_z_top(a, 2);
  fill_z_bottom(a, 2);
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(a(i, j, -1), a(i, j, 0));
      EXPECT_DOUBLE_EQ(a(i, j, -2), a(i, j, 0));
      EXPECT_DOUBLE_EQ(a(i, j, 5), a(i, j, 4));
      EXPECT_DOUBLE_EQ(a(i, j, 6), a(i, j, 4));
    }
}

TEST(PoleFill, CoversHaloCorners) {
  // The pole fill must also populate x-halo columns so subsequent stencil
  // sweeps over extended ranges see consistent corners.
  auto a = labeled(6, 4, 2, {2, 2, 0});
  fill_x_periodic(a, 2);
  fill_pole_north(a, 2, PoleParity::kSymmetric);
  for (int k = 0; k < 2; ++k)
    for (int i = -2; i < 8; ++i)
      EXPECT_DOUBLE_EQ(a(i, -1, k), a(i, 0, k));
}

}  // namespace
}  // namespace ca::mesh
