// Parallel substrate tests: the ThreadExec pool, the Cartesian
// decomposition (including the degenerate and uneven cases the
// distributed layer must survive), the packed halo-slab format of Field,
// and the analytic scaling-model helpers. The end-to-end rank-parallel
// identity tests live in test_distributed.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numbers>
#include <thread>
#include <vector>

#include "par/comm_model.hpp"
#include "par/communicator.hpp"
#include "par/decomp.hpp"
#include "par/thread_exec.hpp"

namespace vdg {
namespace {

TEST(ThreadExec, ParallelForCoversRangeExactlyOnce) {
  ThreadExec exec(4);
  EXPECT_EQ(exec.numThreads(), 4);
  const std::size_t n = 1037;
  std::vector<std::atomic<int>> hits(n);
  exec.parallelFor(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // Reusable: a second loop on the same pool.
  std::atomic<std::size_t> total{0};
  exec.parallelFor(10, [&](std::size_t b, std::size_t e) { total.fetch_add(e - b); });
  EXPECT_EQ(total.load(), 10u);
  // Degenerate sizes.
  exec.parallelFor(0, [&](std::size_t, std::size_t) { FAIL(); });
  std::atomic<int> ones{0};
  exec.parallelFor(1, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 1u);
    ++ones;
  });
  EXPECT_EQ(ones.load(), 1);
}

TEST(ThreadExec, NestedParallelForRunsInline) {
  ThreadExec exec(4);
  std::atomic<int> inner{0};
  exec.parallelFor(8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // A nested submission must degrade to an inline loop, not deadlock.
      exec.parallelFor(3, [&](std::size_t bb, std::size_t ee) {
        inner.fetch_add(static_cast<int>(ee - bb));
      });
    }
  });
  EXPECT_EQ(inner.load(), 24);
}

TEST(ThreadExec, ParallelForEachCellMatchesSerialOrderPerChunk) {
  ThreadExec exec(3);
  const Grid g = Grid::make({5, 4, 3}, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  Field visited(g, 1, 0);
  visited.setZero();
  parallelForEachCell(&exec, g, [&](const MultiIndex& idx) { visited.at(idx)[0] += 1.0; });
  forEachCell(g, [&](const MultiIndex& idx) { EXPECT_EQ(visited.at(idx)[0], 1.0); });
  // Nullable-executor fallback covers the same cells serially.
  parallelForEachCell(nullptr, g, [&](const MultiIndex& idx) { visited.at(idx)[0] += 1.0; });
  forEachCell(g, [&](const MultiIndex& idx) { EXPECT_EQ(visited.at(idx)[0], 2.0); });
}

TEST(Factor3, NearCubicFactorizations) {
  EXPECT_EQ(factor3(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(factor3(64), (std::array<int, 3>{4, 4, 4}));
  const auto f512 = factor3(512);
  EXPECT_EQ(f512[0] * f512[1] * f512[2], 512);
  EXPECT_EQ(f512, (std::array<int, 3>{8, 8, 8}));
  const auto f12 = factor3(12);
  EXPECT_EQ(f12[0] * f12[1] * f12[2], 12);
}

TEST(Factor3, PrimesDegradeToSlabs) {
  for (int p : {2, 3, 7, 13, 97}) {
    auto f = factor3(p);
    EXPECT_EQ(f[0] * f[1] * f[2], p) << p;
    // A prime has no non-trivial 3-way split: two factors must be 1.
    std::sort(f.begin(), f.end());
    EXPECT_EQ(f[0], 1) << p;
    EXPECT_EQ(f[1], 1) << p;
    EXPECT_EQ(f[2], p) << p;
  }
}

TEST(CartDecomp, OneDimPartitionsEvenlyWithPeriodicNeighbors) {
  const Grid conf = Grid::make({12}, {0.0}, {1.0});
  const CartDecomp d = CartDecomp::make(conf, 4);
  EXPECT_EQ(d.numRanks(), 4);
  EXPECT_EQ(d.blocks[0], 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(d.count[0][static_cast<std::size_t>(r)], 3);
    EXPECT_EQ(d.neighbor(r, 0, +1), (r + 1) % 4);
    EXPECT_EQ(d.neighbor(r, 0, -1), (r + 3) % 4);
  }
}

TEST(CartDecomp, MultiDimUnevenBlocksTileTheGrid) {
  const Grid conf = Grid::make({8, 4}, {0.0, 0.0}, {1.0, 1.0});
  const CartDecomp d = CartDecomp::make(conf, 6);
  EXPECT_EQ(d.numRanks(), 6);
  EXPECT_EQ(d.blocks[0] * d.blocks[1], 6);
  // Every cell of the grid is owned by exactly one rank.
  std::vector<int> owners(8 * 4, 0);
  for (int r = 0; r < 6; ++r) {
    const Grid lg = d.localGrid(conf, r);
    forEachCell(lg, [&](const MultiIndex& idx) {
      const int gx = idx[0] + lg.offset[0];
      const int gy = idx[1] + lg.offset[1];
      owners[static_cast<std::size_t>(gy * 8 + gx)] += 1;
    });
  }
  for (int o : owners) EXPECT_EQ(o, 1);
  // coords <-> rank round trip.
  for (int r = 0; r < 6; ++r) EXPECT_EQ(d.rankOf(d.coords(r)), r);
}

TEST(CartDecomp, LocalGridCoordinateArithmeticIsBitExact) {
  const Grid conf = Grid::make({10}, {0.25}, {7.75});
  const CartDecomp d = CartDecomp::make(conf, 4);  // uneven: 3,3,2,2
  for (int r = 0; r < 4; ++r) {
    const Grid lg = d.localGrid(conf, r);
    EXPECT_EQ(lg.dx(0), conf.dx(0)) << r;  // exact, not NEAR
    for (int i = 0; i < lg.cells[0]; ++i)
      EXPECT_EQ(lg.cellCenter(0, i), conf.cellCenter(0, lg.offset[0] + i)) << r << "," << i;
  }
}

TEST(CartDecomp, FindsExactTilingsGreedyPlacementWouldMiss) {
  // 12 ranks on 4x3: the only valid factorization is 4x3 (a greedy
  // largest-factor-first pass puts 3 on the 4-cell dim and strands a 2).
  const CartDecomp d = CartDecomp::make(Grid::make({4, 3}, {0.0, 0.0}, {1.0, 1.0}), 12);
  EXPECT_EQ(d.blocks[0], 4);
  EXPECT_EQ(d.blocks[1], 3);
  // Load balance beats minimal halo surface: 6 ranks on 8x4 as 3x2
  // (max 3x2=6 cells/rank), not the slab 6x1 (max 2x4=8 cells/rank).
  const CartDecomp e = CartDecomp::make(Grid::make({8, 4}, {0.0, 0.0}, {1.0, 1.0}), 6);
  EXPECT_EQ(e.blocks[0], 3);
  EXPECT_EQ(e.blocks[1], 2);
}

TEST(CartDecomp, OneDimUnevenCountsPartitionExactly) {
  // 17 cells over 4 ranks: contiguous near-equal blocks (5,4,4,4) whose
  // local grids tile the domain.
  const Grid conf = Grid::make({17}, {0.0}, {3.0});
  const CartDecomp d = CartDecomp::make(conf, 4);
  ASSERT_EQ(d.blocks[0], 4);
  int pos = 0;
  double lo = conf.lower[0];
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(d.start[0][static_cast<std::size_t>(r)], pos);
    EXPECT_GE(d.count[0][static_cast<std::size_t>(r)], 4);
    pos += d.count[0][static_cast<std::size_t>(r)];
    const Grid lg = d.localGrid(conf, r);
    EXPECT_NEAR(lg.lower[0], lo, 1e-14);
    lo = lg.upper[0];
  }
  EXPECT_EQ(pos, 17);
  EXPECT_NEAR(lo, conf.upper[0], 1e-14);
}

TEST(CartDecomp, OneDimNonPeriodicEdgesAndSingleRank) {
  std::array<bool, kMaxDim> walls{};
  walls.fill(true);
  walls[0] = false;
  // Uneven counts (17 over 4) with walls: interior neighbors are intact,
  // the two domain edges return the sentinel instead of wrapping.
  const Grid conf = Grid::make({17}, {0.0}, {1.0});
  const CartDecomp d = CartDecomp::make(conf, 4, walls);
  EXPECT_EQ(d.neighbor(0, 0, -1), kNoNeighbor);
  EXPECT_EQ(d.neighbor(3, 0, +1), kNoNeighbor);
  EXPECT_EQ(d.neighbor(0, 0, +1), 1);
  EXPECT_EQ(d.neighbor(2, 0, -1), 1);
  // Periodic default wraps.
  const CartDecomp p = CartDecomp::make(conf, 4);
  EXPECT_EQ(p.neighbor(0, 0, -1), 3);
  EXPECT_EQ(p.neighbor(3, 0, +1), 0);
  // Single rank: periodic is its own neighbor, walled has none.
  const Grid six = Grid::make({6}, {0.0}, {1.0});
  const CartDecomp one = CartDecomp::make(six, 1, walls);
  EXPECT_EQ(one.neighbor(0, 0, -1), kNoNeighbor);
  EXPECT_EQ(one.neighbor(0, 0, +1), kNoNeighbor);
  EXPECT_EQ(CartDecomp::make(six, 1).neighbor(0, 0, +1), 0);
  EXPECT_EQ(CartDecomp::make(six, 1).neighbor(0, 0, -1), 0);
}

TEST(CartDecomp, NonPeriodicDimsReturnTheSentinelAtDomainEdges) {
  // 1-D, uneven counts (10 over 4 -> 3,3,2,2), walls in x.
  std::array<bool, kMaxDim> periodic{};
  periodic.fill(true);
  periodic[0] = false;
  const Grid conf = Grid::make({10}, {0.0}, {1.0});
  const CartDecomp d = CartDecomp::make(conf, 4, periodic);
  EXPECT_FALSE(d.periodic[0]);
  EXPECT_EQ(d.neighbor(0, 0, -1), kNoNeighbor);
  EXPECT_EQ(d.neighbor(3, 0, +1), kNoNeighbor);
  for (int r = 0; r < 3; ++r) EXPECT_EQ(d.neighbor(r, 0, +1), r + 1);
  // The decomposition itself (blocks, counts) is unchanged by the flags.
  const CartDecomp w = CartDecomp::make(conf, 4);
  EXPECT_EQ(w.blocks, d.blocks);
  EXPECT_EQ(w.count[0], d.count[0]);
}

TEST(CartDecomp, MixedPeriodicityAndSingleBlockDims) {
  // 2-D, 2 ranks: the exhaustive search splits the 8-cell dim (2 blocks)
  // and leaves dim 1 whole (single block). Walls in dim 1, periodic dim 0.
  std::array<bool, kMaxDim> periodic{};
  periodic.fill(true);
  periodic[1] = false;
  const CartDecomp d = CartDecomp::make(Grid::make({8, 4}, {0.0, 0.0}, {1.0, 1.0}), 2, periodic);
  ASSERT_EQ(d.blocks[0], 2);
  ASSERT_EQ(d.blocks[1], 1);
  // Periodic decomposed dim wraps across the edge.
  EXPECT_EQ(d.neighbor(0, 0, -1), 1);
  EXPECT_EQ(d.neighbor(1, 0, +1), 0);
  // Non-periodic single-block dim: every rank owns both walls — no
  // neighbor on either side (not even itself: walls never exchange).
  EXPECT_EQ(d.neighbor(0, 1, -1), kNoNeighbor);
  EXPECT_EQ(d.neighbor(0, 1, +1), kNoNeighbor);
  // Periodic single-block dim stays a self-wrap.
  const CartDecomp p = CartDecomp::make(Grid::make({8, 4}, {0.0, 0.0}, {1.0, 1.0}), 2);
  EXPECT_EQ(p.neighbor(0, 1, -1), 0);
}

TEST(CartDecomp, ThrowsWhenRanksCannotBePlaced) {
  // More ranks than cells.
  EXPECT_THROW(CartDecomp::make(Grid::make({2}, {0.0}, {1.0}), 3), std::invalid_argument);
  // Enough cells in total, but a prime factor exceeds every dimension.
  EXPECT_THROW(CartDecomp::make(Grid::make({2, 2}, {0.0, 0.0}, {1.0, 1.0}), 5),
               std::invalid_argument);
  // A composite that cannot split: 4 = 2*2 over a 3-cell line.
  EXPECT_THROW(CartDecomp::make(Grid::make({3}, {0.0}, {1.0}), 4), std::invalid_argument);
  EXPECT_THROW(CartDecomp::make(Grid::make({3}, {0.0}, {1.0}), 0), std::invalid_argument);
}

TEST(Field, PackUnpackRoundTripsOn1x1vAnd2x2vGrids) {
  // Property test of the halo slab format on a 1x1v (2-D) and a 2x2v
  // (4-D) grid: a self pack/unpack exchange must place every periodic
  // image exactly, and unpacking a slab must reproduce the packed bytes.
  const std::vector<Grid> grids = {
      Grid::make({5, 4}, {0.0, -1.0}, {1.0, 1.0}),
      Grid::make({3, 4, 2, 5}, {0.0, 0.0, -1.0, -1.0}, {1.0, 1.0, 1.0, 1.0})};
  for (const Grid& g : grids) {
    Field f(g, 3);
    // Unique value per (cell, component) over the whole extended array, so
    // a misplaced slab cell cannot alias a correct one. Encode the index.
    forEachCell(g, [&](const MultiIndex& idx) {
      for (int c = 0; c < 3; ++c) {
        double v = c + 1.0;
        for (int d = 0; d < g.ndim; ++d) v = 31.0 * v + idx[d];
        f.at(idx)[c] = v;
      }
    });

    for (int d = 0; d < g.ndim; ++d) {
      const std::size_t n = f.ghostSlabSize(d);
      std::vector<double> lo(n), hi(n);
      f.packGhost(d, -1, lo);
      f.packGhost(d, +1, hi);
      f.unpackGhost(d, -1, hi);  // periodic self exchange
      f.unpackGhost(d, +1, lo);

      // Every ghost cell of dim d now holds its periodic image's value.
      const int nc = g.cells[static_cast<std::size_t>(d)];
      forEachCell(g, [&](const MultiIndex& idx) {
        if (idx[d] != 0 && idx[d] != nc - 1) return;
        MultiIndex ghost = idx;
        ghost[d] = idx[d] == 0 ? nc : -1;
        MultiIndex image = idx;
        image[d] = idx[d] == 0 ? 0 : nc - 1;
        for (int c = 0; c < 3; ++c) EXPECT_EQ(f.at(ghost)[c], f.at(image)[c]);
      });

      // Repacking the ghost slabs must reproduce the buffers bit for bit
      // (the round-trip property a mailbox exchange relies on). A ghost
      // repack is a pack of the ghost layer: compare via a fresh unpack
      // into a second field instead.
      Field f2(g, 3);
      f2.unpackGhost(d, -1, hi);
      MultiIndex probe;
      probe[d] = -1;
      EXPECT_EQ(f2.at(probe)[0], f.at(probe)[0]);
    }
  }
}

TEST(Field, SyncPeriodicMatchesSlabExchangeOracle) {
  // syncPeriodic is now implemented on the packGhost/unpackGhost path;
  // verify against a direct periodic-image oracle on a 2x2v grid,
  // including the corner ghosts produced by sequential dimension syncs.
  const Grid g = Grid::make({3, 2, 4, 3}, {0.0, 0.0, -1.0, -1.0}, {1.0, 1.0, 1.0, 1.0});
  Field f(g, 2);
  forEachCell(g, [&](const MultiIndex& idx) {
    for (int c = 0; c < 2; ++c) {
      double v = c + 1.0;
      for (int d = 0; d < g.ndim; ++d) v = 31.0 * v + idx[d];
      f.at(idx)[c] = v;
    }
  });
  for (int d = 0; d < g.ndim; ++d) f.syncPeriodic(d);

  // Oracle: every extended-index cell equals the interior cell at the
  // per-dimension periodic wrap of its index.
  MultiIndex ext;
  for (int i = 0; i < g.ndim; ++i) ext[i] = -1;
  while (true) {
    MultiIndex image;
    for (int i = 0; i < g.ndim; ++i) {
      const int nc = g.cells[static_cast<std::size_t>(i)];
      image[i] = ((ext[i] % nc) + nc) % nc;
    }
    for (int c = 0; c < 2; ++c) EXPECT_EQ(f.at(ext)[c], f.at(image)[c]);
    int k = 0;
    while (k < g.ndim && ++ext[k] >= g.cells[static_cast<std::size_t>(k)] + 1) ext[k++] = -1;
    if (k == g.ndim) break;
  }
}

TEST(HaloStats, BucketsBookTrafficAndDeriveTheLegacyCounters) {
  // A two-rank exchange on a tiny 1-D field books exact byte/cell counts
  // into the split stats, and the legacy haloBytes/haloCells/haloSeconds
  // accessors are pure derivations of haloStats() — one source of truth.
  const Grid global = Grid::make({8}, {0.0}, {1.0});
  const CartDecomp decomp = CartDecomp::make(global, 2);
  ThreadComm comm(decomp);
  std::vector<std::thread> ts;
  for (int r = 0; r < 2; ++r)
    ts.emplace_back([&, r] {
      Field f(decomp.localGrid(global, r), 3);
      f.setZero();
      comm.endpoint(r).syncConfGhostsDim(f, 0, true);
      (void)comm.endpoint(r).allReduceSum(1.0);
    });
  for (auto& t : ts) t.join();
  for (int r = 0; r < 2; ++r) {
    const Communicator& ep = comm.endpoint(r);
    const HaloStats s = ep.haloStats();
    // Two received slabs of ghostSlabSize = ncomp (3) doubles each.
    EXPECT_EQ(s.bytes, 2u * 3u * sizeof(double)) << "rank " << r;
    EXPECT_EQ(s.cells, 2u) << "rank " << r;
    EXPECT_GT(s.reduceSec, 0.0) << "rank " << r;
    EXPECT_EQ(ep.haloBytes(), s.bytes) << "rank " << r;
    EXPECT_EQ(ep.haloCells(), s.cells) << "rank " << r;
    EXPECT_EQ(ep.haloSeconds(),
              s.packSec + s.postSec + s.waitSec + s.unpackSec + s.reduceSec)
        << "rank " << r;
    EXPECT_EQ(s.totalSec(), ep.haloSeconds()) << "rank " << r;
  }
}

TEST(HaloStats, InjectedDeliveryDelayLandsInTheWaitBucket) {
  // The fault hook delays rank 1's posts by 30 ms each; rank 0 posts
  // instantly and must spend that time blocked in receive — so the split
  // attribution (wait, not pack/post/unpack) reflects where the real time
  // went. This is also the latency-injection seam the overlap tests use.
  const Grid global = Grid::make({8}, {0.0}, {1.0});
  const CartDecomp decomp = CartDecomp::make(global, 2);
  ThreadComm comm(decomp);
  comm.setDeliveryFault([](int src, int /*dst*/, int /*dim*/, int /*side*/) {
    if (src == 1) std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  std::vector<std::thread> ts;
  for (int r = 0; r < 2; ++r)
    ts.emplace_back([&, r] {
      Field f(decomp.localGrid(global, r), 2);
      f.setZero();
      comm.endpoint(r).syncConfGhostsDim(f, 0, true);
    });
  for (auto& t : ts) t.join();
  // Rank 1's two delayed posts complete at ~30/~60 ms; rank 0 waits for
  // both. Assert half the injected floor — generous against scheduler
  // jitter, far above what an undelayed exchange measures.
  EXPECT_GE(comm.endpoint(0).haloStats().waitSec, 0.03);
}

TEST(CommModel, WeakScalingStaysNearFlat) {
  MachineModel m;
  m.perCellSeconds = 2e-6;
  m.bytesPerCell = 64 * 8;
  const auto pts = weakScaling(m, {8, 8, 8}, 16 * 16 * 16, {1, 8, 64, 512, 4096});
  ASSERT_EQ(pts.size(), 5u);
  // Paper: at worst ~25% of per-step cost in halo exchange at 4096 nodes.
  for (const auto& p : pts) EXPECT_LT(p.commFraction, 0.5);
  // Time per step grows by less than 2x from 1 to 4096 nodes.
  EXPECT_LT(pts.back().timePerStep, 2.0 * pts.front().timePerStep);
}

TEST(CommModel, StrongScalingSaturates) {
  MachineModel m;
  m.perCellSeconds = 2e-6;
  m.bytesPerCell = 64 * 8;
  m.bandwidth = 1e9;
  m.starveCells = 16384;
  const auto pts = strongScaling(m, {32, 32, 32}, 8 * 8 * 8, {8, 64, 512, 4096});
  ASSERT_EQ(pts.size(), 4u);
  // Speedup grows but distinctly sublinearly (paper: ~60x instead of 512x).
  EXPECT_GT(pts.back().relSpeedup, 4.0);
  EXPECT_LT(pts.back().relSpeedup, 150.0);
  // Comm fraction rises monotonically as ranks starve.
  EXPECT_GT(pts.back().commFraction, pts.front().commFraction);
}

}  // namespace
}  // namespace vdg
