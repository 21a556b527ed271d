// Grid and field container tests: indexing, ghost layers, periodic sync,
// and the linear-algebra helpers the steppers rely on.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>
#include <span>

#include "grid/grid.hpp"

namespace vdg {
namespace {

TEST(Grid, GeometryBasics) {
  const Grid g = Grid::make({8, 4}, {0.0, -2.0}, {1.0, 2.0});
  EXPECT_EQ(g.ndim, 2);
  EXPECT_DOUBLE_EQ(g.dx(0), 0.125);
  EXPECT_DOUBLE_EQ(g.dx(1), 1.0);
  EXPECT_DOUBLE_EQ(g.cellCenter(0, 0), 0.0625);
  EXPECT_DOUBLE_EQ(g.cellCenter(1, 3), 1.5);
  EXPECT_EQ(g.numCells(), 32u);
}

TEST(Grid, PhaseCompose) {
  const Grid conf = Grid::make({4}, {0.0}, {1.0});
  const Grid vel = Grid::make({8, 8}, {-6.0, -6.0}, {6.0, 6.0});
  const Grid ph = Grid::phase(conf, vel);
  EXPECT_EQ(ph.ndim, 3);
  EXPECT_EQ(ph.cells[0], 4);
  EXPECT_EQ(ph.cells[2], 8);
  EXPECT_DOUBLE_EQ(ph.lower[1], -6.0);
}

TEST(Grid, MakeValidates) {
  EXPECT_THROW(Grid::make({4}, {0.0}, {-1.0}), std::invalid_argument);
  EXPECT_THROW(Grid::make({0}, {0.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Grid::make({4, 4}, {0.0}, {1.0}), std::invalid_argument);
}

TEST(Grid, ForEachCellVisitsAllOnce) {
  const Grid g = Grid::make({3, 2, 4}, {0, 0, 0}, {1, 1, 1});
  int count = 0;
  forEachCell(g, [&](const MultiIndex&) { ++count; });
  EXPECT_EQ(count, 24);
}

TEST(Field, CellAccessIsolation) {
  const Grid g = Grid::make({4, 4}, {0, 0}, {1, 1});
  Field f(g, 3);
  forEachCell(g, [&](const MultiIndex& idx) {
    double* c = f.at(idx);
    for (int k = 0; k < 3; ++k) c[k] = idx[0] * 10.0 + idx[1] + 0.1 * k;
  });
  MultiIndex probe;
  probe[0] = 2;
  probe[1] = 3;
  EXPECT_DOUBLE_EQ(f.at(probe)[1], 23.1);
}

TEST(Field, PeriodicSyncWrapsBothSides) {
  const Grid g = Grid::make({4}, {0.0}, {1.0});
  Field f(g, 1);
  for (int i = 0; i < 4; ++i) {
    MultiIndex idx;
    idx[0] = i;
    f.at(idx)[0] = i + 1.0;
  }
  f.syncPeriodic(0);
  MultiIndex lo, hi;
  lo[0] = -1;
  hi[0] = 4;
  EXPECT_DOUBLE_EQ(f.at(lo)[0], 4.0);
  EXPECT_DOUBLE_EQ(f.at(hi)[0], 1.0);
}

TEST(Field, PeriodicSyncCornersAfterBothDims) {
  const Grid g = Grid::make({3, 3}, {0, 0}, {1, 1});
  Field f(g, 1);
  forEachCell(g, [&](const MultiIndex& idx) { f.at(idx)[0] = 10.0 * idx[0] + idx[1]; });
  f.syncPeriodic(0);
  f.syncPeriodic(1);
  MultiIndex corner;
  corner[0] = -1;
  corner[1] = -1;
  EXPECT_DOUBLE_EQ(f.at(corner)[0], 22.0);  // image of (2,2)
  corner[0] = 3;
  corner[1] = 3;
  EXPECT_DOUBLE_EQ(f.at(corner)[0], 0.0);  // image of (0,0)
}

TEST(Field, ZeroAndCopyGhost) {
  const Grid g = Grid::make({2, 2}, {0, 0}, {1, 1});
  Field f(g, 1);
  forEachCell(g, [&](const MultiIndex& idx) { f.at(idx)[0] = 5.0 + idx[0] + idx[1]; });
  f.copyGhost(0);
  MultiIndex gidx;
  gidx[0] = -1;
  gidx[1] = 1;
  EXPECT_DOUBLE_EQ(f.at(gidx)[0], 6.0);  // copy of (0,1)
  f.zeroGhost(0);
  EXPECT_DOUBLE_EQ(f.at(gidx)[0], 0.0);
}

TEST(Field, LinearAlgebraHelpers) {
  const Grid g = Grid::make({4}, {0.0}, {1.0});
  Field a(g, 2), b(g, 2), c(g, 2);
  forEachCell(g, [&](const MultiIndex& idx) {
    a.at(idx)[0] = 1.0;
    a.at(idx)[1] = 2.0;
    b.at(idx)[0] = 3.0;
    b.at(idx)[1] = 4.0;
  });
  c.combine(2.0, a, -1.0, b);
  MultiIndex i0;
  EXPECT_DOUBLE_EQ(c.at(i0)[0], -1.0);
  EXPECT_DOUBLE_EQ(c.at(i0)[1], 0.0);
  c.axpy(0.5, b);
  EXPECT_DOUBLE_EQ(c.at(i0)[0], 0.5);
  c.scale(2.0);
  EXPECT_DOUBLE_EQ(c.at(i0)[0], 1.0);
  c.copyFrom(a);
  EXPECT_DOUBLE_EQ(c.at(i0)[1], 2.0);
}

TEST(Field, Lincomb3MatchesCombineThenAxpyBitwise) {
  // The fused RK stage update must round exactly like the two passes it
  // replaced, also when the output aliases an input (u = a*u + b*v + c*k).
  const Grid g = Grid::make({5, 3}, {0.0, -1.0}, {1.0, 1.0});
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const auto randomField = [&] {
    Field f(g, 3);
    for (double& v : f.raw()) v = u(rng);
    return f;
  };
  const Field x = randomField(), y = randomField(), z = randomField();
  const double dt = 0.0137;
  for (const auto& [a, b, c] :
       {std::array{1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0 * dt}, std::array{0.75, 0.25, 0.25 * dt},
        std::array{0.5, 0.5, 0.5 * dt}}) {
    Field twoPass(g, 3), fused(g, 3);
    twoPass.combine(a, x, b, y);
    twoPass.axpy(c, z);
    fused.lincomb3(a, x, b, y, c, z);
    Field inPlace(g, 3);
    inPlace.copyFrom(x);
    inPlace.lincomb3(a, inPlace, b, y, c, z);
    const std::span<const double> ref = twoPass.raw();
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(fused.raw()[i], ref[i]) << i;
      ASSERT_EQ(inPlace.raw()[i], ref[i]) << i;
    }
  }
}

}  // namespace
}  // namespace vdg
