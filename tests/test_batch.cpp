// Tests of the blocked (AoSoA) kernel execution path: the generated
// kernels at every lane count and the blocked tape executors must agree
// BITWISE with the one-cell computation (B = 1 kernels, Tape::execute) —
// per lane they perform the same floating-point operations in the same
// order (dg/batch.hpp documents the contract), so every comparison here is
// exact equality, not a tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "app/simulation.hpp"
#include "collisions/lbo.hpp"
#include "dg/batch.hpp"
#include "dg/vlasov.hpp"
#include "kernels/registry.hpp"

namespace vdg {
namespace {

constexpr double kPi = std::numbers::pi;

Grid phaseGridFor(const BasisSpec& spec, int nx, int nv) {
  Grid g;
  g.ndim = spec.ndim();
  for (int d = 0; d < spec.cdim; ++d) {
    g.cells[static_cast<std::size_t>(d)] = nx;
    g.lower[static_cast<std::size_t>(d)] = 0.0;
    g.upper[static_cast<std::size_t>(d)] = 2.0 * kPi;
  }
  for (int d = spec.cdim; d < spec.ndim(); ++d) {
    g.cells[static_cast<std::size_t>(d)] = nv;
    g.lower[static_cast<std::size_t>(d)] = -4.0;
    g.upper[static_cast<std::size_t>(d)] = 4.0;
  }
  return g;
}

Field randomField(const Grid& g, int ncomp, unsigned seed) {
  Field f(g, ncomp);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  forEachCell(g, [&](const MultiIndex& idx) {
    double* c = f.at(idx);
    for (int k = 0; k < ncomp; ++k) c[k] = u(rng);
  });
  return f;
}

std::vector<double> randomVec(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = u(rng);
  return v;
}

/// 0.0 iff every interior coefficient of a and b is (==)-identical.
double maxAbsDiff(const Field& a, const Field& b) {
  EXPECT_EQ(a.ncomp(), b.ncomp());
  double m = 0.0;
  forEachCell(a.grid(), [&](const MultiIndex& idx) {
    const double* pa = a.at(idx);
    const double* pb = b.at(idx);
    for (int l = 0; l < a.ncomp(); ++l) m = std::max(m, std::abs(pa[l] - pb[l]));
  });
  return m;
}

// ------------------------------------------------------------ pack/scatter

TEST(Batch, PackScatterRoundTrip) {
  std::mt19937 rng(11);
  for (const int B : kKernelBatchLanes) {
    const int n = 37;
    std::vector<std::vector<double>> cells;
    std::vector<const double*> src;
    for (int b = 0; b < B; ++b) {
      cells.push_back(randomVec(static_cast<std::size_t>(n), rng));
      src.push_back(cells.back().data());
    }
    BatchBuffer blk(static_cast<std::size_t>(n) * B);
    packLanes(B, n, src.data(), blk.data());
    // AoSoA layout: element i of lane b at [i*B + b].
    for (int i = 0; i < n; ++i)
      for (int b = 0; b < B; ++b)
        ASSERT_EQ(blk[static_cast<std::size_t>(i * B + b)],
                  cells[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)]);

    std::vector<std::vector<double>> out(static_cast<std::size_t>(B),
                                         std::vector<double>(static_cast<std::size_t>(n), 7.0));
    std::vector<double*> dst;
    for (auto& o : out) dst.push_back(o.data());
    scatterLanes(B, n, blk.data(), dst.data());
    for (int b = 0; b < B; ++b)
      ASSERT_EQ(out[static_cast<std::size_t>(b)], cells[static_cast<std::size_t>(b)]);

    // scatterAddLanes adds on top (7.0 sentinel checks the overwrite above).
    scatterAddLanes(B, n, blk.data(), dst.data());
    for (int b = 0; b < B; ++b)
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(out[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)],
                  cells[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)] +
                      cells[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)]);

    zeroLanes(B, n, blk.data());
    for (const double x : blk) ASSERT_EQ(x, 0.0);
  }
}

TEST(Batch, BatchedTapeExecutorsMatchScalarBitwise) {
  std::mt19937 rng(23);
  std::uniform_int_distribution<int> pick(0, 19);
  Tape3 t3;
  Tape2 t2;
  for (int i = 0; i < 150; ++i) {
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    t3.terms.push_back({pick(rng), pick(rng), pick(rng), u(rng)});
    t2.terms.push_back({pick(rng), pick(rng), u(rng)});
  }
  const int n = 20;
  const double scale = 1.37;
  for (const int B : kKernelBatchLanes) {
    std::vector<std::vector<double>> a, f, outS;
    std::vector<const double*> ap, fp;
    for (int b = 0; b < B; ++b) {
      a.push_back(randomVec(static_cast<std::size_t>(n), rng));
      f.push_back(randomVec(static_cast<std::size_t>(n), rng));
      outS.emplace_back(static_cast<std::size_t>(n), 0.0);
      ap.push_back(a.back().data());
      fp.push_back(f.back().data());
    }
    BatchBuffer aBlk(static_cast<std::size_t>(n) * B), fBlk(static_cast<std::size_t>(n) * B),
        oBlk(static_cast<std::size_t>(n) * B);
    packLanes(B, n, ap.data(), aBlk.data());
    packLanes(B, n, fp.data(), fBlk.data());

    // Tape3, per-lane a.
    for (int b = 0; b < B; ++b)
      t3.execute(a[static_cast<std::size_t>(b)], f[static_cast<std::size_t>(b)],
                 outS[static_cast<std::size_t>(b)], scale);
    zeroLanes(B, n, oBlk.data());
    executeBatched(t3, B, aBlk.data(), fBlk.data(), oBlk.data(), scale);
    for (int b = 0; b < B; ++b)
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(oBlk[static_cast<std::size_t>(i * B + b)],
                  outS[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)])
            << "B=" << B;

    // Tape3, lane-invariant a (LBO diffusion shape).
    const std::vector<double>& aShared = a[0];
    for (int b = 0; b < B; ++b) {
      std::fill(outS[static_cast<std::size_t>(b)].begin(), outS[static_cast<std::size_t>(b)].end(),
                0.0);
      t3.execute(aShared, f[static_cast<std::size_t>(b)], outS[static_cast<std::size_t>(b)],
                 scale);
    }
    zeroLanes(B, n, oBlk.data());
    executeBatchedSharedA(t3, B, aShared.data(), fBlk.data(), oBlk.data(), scale);
    for (int b = 0; b < B; ++b)
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(oBlk[static_cast<std::size_t>(i * B + b)],
                  outS[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)])
            << "B=" << B;

    // Tape2.
    for (int b = 0; b < B; ++b) {
      std::fill(outS[static_cast<std::size_t>(b)].begin(), outS[static_cast<std::size_t>(b)].end(),
                0.0);
      t2.execute(f[static_cast<std::size_t>(b)], outS[static_cast<std::size_t>(b)], scale);
    }
    zeroLanes(B, n, oBlk.data());
    executeBatched(t2, B, fBlk.data(), oBlk.data(), scale);
    for (int b = 0; b < B; ++b)
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(oBlk[static_cast<std::size_t>(i * B + b)],
                  outS[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)])
            << "B=" << B;
  }
}

// ------------------------------------------------- registry capabilities

TEST(Batch, RegistryOffersEveryLaneCountForEveryGeneratedSpec) {
  for (const std::string& name : listCompiledKernelSpecs()) {
    if (name == "0x0v_p0_test") continue;  // fake entry other tests register
    const VlasovCompiledKernels* ck = findCompiledKernels(name);
    ASSERT_NE(ck, nullptr) << name;
    const int cdim = name[0] - '0';
    const int vdim = name[2] - '0';
    for (const int lanes : kKernelBatchLanes)
      EXPECT_NE(ck->forLanes(lanes, cdim, vdim), nullptr) << name << " B=" << lanes;
    EXPECT_EQ(ck->maxLanes(cdim, vdim), 8) << name;
  }
}

TEST(Batch, DescribeCompiledKernelSpecsReportsLaneCounts) {
  const std::vector<std::string> lines = describeCompiledKernelSpecs();
  bool found = false;
  for (const std::string& line : lines)
    if (line.find("2x3v_p2_ser") == 0) {
      found = true;
      EXPECT_NE(line.find("112 modes"), std::string::npos) << line;
      EXPECT_NE(line.find("batch lanes {1,4,8}"), std::string::npos) << line;
    }
  EXPECT_TRUE(found);
  // The plain spec listing stays pure names (consumers parse it).
  for (const std::string& name : listCompiledKernelSpecs())
    EXPECT_EQ(name.find(' '), std::string::npos) << name;
}

// ------------------------------------- kernel-level identity, every spec

class BatchedBySpec : public ::testing::TestWithParam<BasisSpec> {};

TEST_P(BatchedBySpec, KernelsMatchScalarBitwise) {
  const BasisSpec spec = GetParam();
  const int cdim = spec.cdim, vdim = spec.vdim, ndim = spec.ndim();
  const int np = basisFor(spec).numModes();
  const VlasovCompiledKernels* compiled = findCompiledKernels(spec.name());
  ASSERT_NE(compiled, nullptr);
  // The one-cell reference: the B = 1 instantiation, called per lane.
  const VlasovLaneKernels* ck = compiled->forLanes(1, cdim, vdim);
  ASSERT_NE(ck, nullptr);

  std::mt19937 rng(101);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_real_distribution<double> ud(0.2, 1.8);
  std::vector<double> dxv(static_cast<std::size_t>(ndim));
  for (double& x : dxv) x = ud(rng);

  for (const int B : {4, 8}) {
    const VlasovLaneKernels* bk = compiled->forLanes(B, cdim, vdim);
    ASSERT_NE(bk, nullptr) << spec.name() << " B=" << B;

    // Per-lane random inputs.
    std::vector<std::vector<double>> w, f, g, alpha, beta;
    std::vector<const double*> wp, fp, gp, ap, bp;
    for (int b = 0; b < B; ++b) {
      w.push_back(randomVec(static_cast<std::size_t>(ndim), rng));
      f.push_back(randomVec(static_cast<std::size_t>(np), rng));
      g.push_back(randomVec(static_cast<std::size_t>(np), rng));
      alpha.push_back(randomVec(static_cast<std::size_t>(vdim) * np, rng));
      beta.push_back(randomVec(static_cast<std::size_t>(vdim) * np, rng));
      wp.push_back(w.back().data());
      fp.push_back(f.back().data());
      gp.push_back(g.back().data());
      ap.push_back(alpha.back().data());
      bp.push_back(beta.back().data());
    }
    BatchBuffer wBlk(static_cast<std::size_t>(ndim) * B), fBlk(static_cast<std::size_t>(np) * B),
        gBlk(static_cast<std::size_t>(np) * B), aBlk(static_cast<std::size_t>(vdim) * np * B),
        o1Blk(static_cast<std::size_t>(np) * B), o2Blk(static_cast<std::size_t>(np) * B);
    packLanes(B, ndim, wp.data(), wBlk.data());
    packLanes(B, np, fp.data(), fBlk.data());
    packLanes(B, np, gp.data(), gBlk.data());
    packLanes(B, vdim * np, ap.data(), aBlk.data());

    std::vector<std::vector<double>> outS(static_cast<std::size_t>(B)),
        out2S(static_cast<std::size_t>(B));

    const auto expectLanesEqual = [&](const BatchBuffer& blk,
                                      const std::vector<std::vector<double>>& ref,
                                      const char* what) {
      for (int b = 0; b < B; ++b)
        for (int i = 0; i < np; ++i)
          ASSERT_EQ(blk[static_cast<std::size_t>(i * B + b)],
                    ref[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)])
              << spec.name() << " " << what << " B=" << B << " lane=" << b << " mode=" << i;
    };

    // Volume streaming.
    for (int b = 0; b < B; ++b) {
      outS[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
      ck->streamVol(wp[static_cast<std::size_t>(b)], dxv.data(), fp[static_cast<std::size_t>(b)],
                    outS[static_cast<std::size_t>(b)].data());
    }
    zeroLanes(B, np, o1Blk.data());
    bk->streamVol(wBlk.data(), dxv.data(), fBlk.data(), o1Blk.data());
    expectLanesEqual(o1Blk, outS, "stream_vol");

    // Volume acceleration.
    for (int b = 0; b < B; ++b) {
      outS[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
      ck->accelVol(dxv.data(), ap[static_cast<std::size_t>(b)], fp[static_cast<std::size_t>(b)],
                   outS[static_cast<std::size_t>(b)].data());
    }
    zeroLanes(B, np, o1Blk.data());
    bk->accelVol(dxv.data(), aBlk.data(), fBlk.data(), o1Blk.data());
    expectLanesEqual(o1Blk, outS, "accel_vol");

    // Surface streaming, every configuration direction.
    for (int d = 0; d < cdim; ++d) {
      for (int b = 0; b < B; ++b) {
        outS[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
        out2S[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
        ck->streamSurf[d](wp[static_cast<std::size_t>(b)], dxv.data(),
                          fp[static_cast<std::size_t>(b)], gp[static_cast<std::size_t>(b)],
                          outS[static_cast<std::size_t>(b)].data(),
                          out2S[static_cast<std::size_t>(b)].data());
      }
      zeroLanes(B, np, o1Blk.data());
      zeroLanes(B, np, o2Blk.data());
      bk->streamSurf[d](wBlk.data(), dxv.data(), fBlk.data(), gBlk.data(), o1Blk.data(),
                        o2Blk.data());
      expectLanesEqual(o1Blk, outS, "stream_surf outl");
      expectLanesEqual(o2Blk, out2S, "stream_surf outr");
    }

    // Surface acceleration, every velocity direction.
    BatchBuffer alBlk(static_cast<std::size_t>(np) * B), arBlk(static_cast<std::size_t>(np) * B);
    for (int j = 0; j < vdim; ++j) {
      const int off = j * np;
      std::vector<const double*> alp, arp;
      for (int b = 0; b < B; ++b) {
        alp.push_back(ap[static_cast<std::size_t>(b)] + off);
        arp.push_back(bp[static_cast<std::size_t>(b)] + off);
      }
      packLanes(B, np, alp.data(), alBlk.data());
      packLanes(B, np, arp.data(), arBlk.data());
      for (int b = 0; b < B; ++b) {
        outS[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
        out2S[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
        ck->accelSurf[j](dxv.data(), alp[static_cast<std::size_t>(b)],
                         arp[static_cast<std::size_t>(b)], fp[static_cast<std::size_t>(b)],
                         gp[static_cast<std::size_t>(b)],
                         outS[static_cast<std::size_t>(b)].data(),
                         out2S[static_cast<std::size_t>(b)].data());
      }
      zeroLanes(B, np, o1Blk.data());
      zeroLanes(B, np, o2Blk.data());
      bk->accelSurf[j](dxv.data(), alBlk.data(), arBlk.data(), fBlk.data(), gBlk.data(),
                       o1Blk.data(), o2Blk.data());
      expectLanesEqual(o1Blk, outS, "accel_surf outl");
      expectLanesEqual(o2Blk, out2S, "accel_surf outr");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, BatchedBySpec,
                         ::testing::Values(BasisSpec{1, 1, 1, BasisFamily::Tensor},
                                           BasisSpec{1, 1, 2, BasisFamily::Tensor},
                                           BasisSpec{1, 1, 2, BasisFamily::Serendipity},
                                           BasisSpec{1, 1, 3, BasisFamily::Serendipity},
                                           BasisSpec{1, 1, 3, BasisFamily::Tensor},
                                           BasisSpec{1, 2, 1, BasisFamily::Tensor},
                                           BasisSpec{1, 2, 1, BasisFamily::Serendipity},
                                           BasisSpec{1, 2, 2, BasisFamily::Serendipity},
                                           BasisSpec{1, 2, 2, BasisFamily::Tensor},
                                           BasisSpec{1, 2, 3, BasisFamily::Serendipity},
                                           BasisSpec{1, 3, 1, BasisFamily::Serendipity},
                                           BasisSpec{1, 3, 1, BasisFamily::Tensor},
                                           BasisSpec{1, 3, 2, BasisFamily::Serendipity},
                                           BasisSpec{2, 2, 1, BasisFamily::Serendipity},
                                           BasisSpec{2, 2, 1, BasisFamily::Tensor},
                                           BasisSpec{2, 2, 2, BasisFamily::Serendipity},
                                           BasisSpec{2, 3, 1, BasisFamily::Serendipity},
                                           BasisSpec{2, 3, 1, BasisFamily::Tensor},
                                           BasisSpec{2, 3, 2, BasisFamily::Serendipity},
                                           BasisSpec{3, 3, 1, BasisFamily::Serendipity},
                                           BasisSpec{3, 3, 1, BasisFamily::MaximalOrder}),
                         [](const auto& info) { return info.param.name(); });

// --------------------------------------- updater-level identity (Vlasov)

class VlasovBatchedUpdater : public ::testing::TestWithParam<BasisSpec> {};

TEST_P(VlasovBatchedUpdater, AdvanceMatchesScalarBitwiseWithRemainders) {
  const BasisSpec spec = GetParam();
  // Box sizes chosen so that every spec fills whole blocks at B = 4 and
  // B = 8 AND leaves a remainder (box sizes not a multiple of either),
  // exercising the batched and the scalar fall-through paths together.
  // Low-dimensional specs need more cells per dimension for that; the
  // 4-D/5-D boxes reach block size through their products (e.g. 3^3 = 27
  // velocity cells).
  const Grid pg = spec.ndim() <= 3 ? phaseGridFor(spec, 9, 13) : phaseGridFor(spec, 3, 3);
  Grid cg;
  cg.ndim = spec.cdim;
  for (int d = 0; d < spec.cdim; ++d) {
    cg.cells[static_cast<std::size_t>(d)] = pg.cells[static_cast<std::size_t>(d)];
    cg.lower[static_cast<std::size_t>(d)] = pg.lower[static_cast<std::size_t>(d)];
    cg.upper[static_cast<std::size_t>(d)] = pg.upper[static_cast<std::size_t>(d)];
  }
  const int np = basisFor(spec).numModes();
  const int npc = basisFor(spec.configSpec()).numModes();

  VlasovParams params;
  VlasovUpdater up(spec, pg, params);
  ASSERT_TRUE(up.usesCompiledKernels());

  Field f = randomField(pg, np, 7);
  Field em = randomField(cg, kEmComps * npc, 9);
  for (int d = 0; d < spec.cdim; ++d) {
    f.syncPeriodic(d);
    em.syncPeriodic(d);
  }

  up.setBatchLanes(1);
  EXPECT_EQ(up.activeBatchLanes(), 1);
  Field rhsScalar(pg, np);
  const double freqScalar = up.advance(f, &em, rhsScalar);

  for (const int B : kKernelBatchLanes) {
    up.setBatchLanes(B);
    ASSERT_EQ(up.activeBatchLanes(), B) << spec.name();
    Field rhsBatched(pg, np);
    const double freqBatched = up.advance(f, &em, rhsBatched);
    EXPECT_EQ(freqBatched, freqScalar) << spec.name() << " B=" << B;
    EXPECT_EQ(maxAbsDiff(rhsBatched, rhsScalar), 0.0) << spec.name() << " B=" << B;
  }

  // Auto mode resolves to the widest registered set.
  up.setBatchLanes(0);
  EXPECT_EQ(up.activeBatchLanes(), 8);
  Field rhsAuto(pg, np);
  up.advance(f, &em, rhsAuto);
  EXPECT_EQ(maxAbsDiff(rhsAuto, rhsScalar), 0.0);

  // Free streaming (no em): volume + configuration surfaces only.
  up.setBatchLanes(1);
  Field rhsFreeS(pg, np);
  up.advance(f, nullptr, rhsFreeS);
  up.setBatchLanes(0);
  Field rhsFreeB(pg, np);
  up.advance(f, nullptr, rhsFreeB);
  EXPECT_EQ(maxAbsDiff(rhsFreeB, rhsFreeS), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Specs, VlasovBatchedUpdater,
                         ::testing::Values(BasisSpec{1, 1, 2, BasisFamily::Serendipity},
                                           BasisSpec{2, 2, 1, BasisFamily::Serendipity},
                                           BasisSpec{2, 3, 2, BasisFamily::Serendipity}),
                         [](const auto& info) { return info.param.name(); });

// ------------------------------------------- pinned advance() digests

/// splitmix64: a fixed generator, so the pinned digests below do not
/// depend on the standard library's <random> distributions.
struct SplitMix64 {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [-1, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53 * 2.0 - 1.0; }
};

/// FNV-1a over the bytes of a sequence of doubles.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(double x) {
    const auto u = std::bit_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

/// A field with every interior coefficient drawn from splitmix64(seed).
Field seededField(const Grid& g, int ncomp, std::uint64_t seed) {
  Field out(g, ncomp);
  SplitMix64 rng{seed};
  forEachCell(g, [&](const MultiIndex& idx) {
    double* c = out.at(idx);
    for (int k = 0; k < ncomp; ++k) c[k] = rng.uniform();
  });
  return out;
}

/// The configuration grid under a phase grid.
Grid confGridOf(const BasisSpec& spec, const Grid& pg) {
  Grid cg;
  cg.ndim = spec.cdim;
  for (std::size_t d = 0; d < static_cast<std::size_t>(spec.cdim); ++d) {
    cg.cells[d] = pg.cells[d];
    cg.lower[d] = pg.lower[d];
    cg.upper[d] = pg.upper[d];
  }
  return cg;
}

/// Hashes the returned CFL frequency, then every interior rhs coefficient
/// (cell odometer order), of one advance() of f with EM.
void hashAdvance(const BasisSpec& spec, const Grid& pg, int lanes, Field& f, Field& em,
                 Fnv1a& h) {
  const int np = basisFor(spec).numModes();
  VlasovUpdater up(spec, pg, VlasovParams{});
  up.setBatchLanes(lanes);
  for (int d = 0; d < spec.cdim; ++d) {
    f.syncPeriodic(d);
    em.syncPeriodic(d);
  }
  Field rhs(pg, np);
  h.add(up.advance(f, &em, rhs));
  forEachCell(pg, [&](const MultiIndex& idx) {
    const double* c = rhs.at(idx);
    for (int l = 0; l < np; ++l) h.add(c[l]);
  });
}

/// FNV-1a digest of one advance() with EM on a splitmix64-seeded f and
/// field (hashAdvance).
std::uint64_t advanceDigest(const BasisSpec& spec, int lanes) {
  // Distinct extents per dimension, and counts that leave remainders at
  // B = 4 and B = 8 in both the velocity boxes and the face lines.
  static const int kCells[7][6] = {{},           {},           {9, 13},           {9, 13, 11},
                                   {5, 3, 5, 3}, {3, 2, 3, 4, 3}, {3, 2, 2, 3, 2, 3}};
  Grid pg;
  pg.ndim = spec.ndim();
  for (int d = 0; d < pg.ndim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    pg.cells[ds] = kCells[pg.ndim][d];
    pg.lower[ds] = d < spec.cdim ? 0.0 : -3.7;
    pg.upper[ds] = d < spec.cdim ? 2.0 + d : 4.1;
  }
  const int np = basisFor(spec).numModes();
  const int npc = basisFor(spec.configSpec()).numModes();
  Field f = seededField(pg, np, 1);
  Field em = seededField(confGridOf(spec, pg), kEmComps * npc, 2);
  Fnv1a h;
  hashAdvance(spec, pg, lanes, f, em, h);
  return h.h;
}

/// FNV-1a digest of inputs that reach the edge cases of the penalty bound
/// tau = max(tauL, tauR) of the generated surface kernels:
///  - every velocity dimension has an odd cell count centred on v = 0, so
///    the middle cell's streaming bound ties, |wv - hdv| == |wv + hdv|;
///  - the EM field vanishes in every third configuration cell, so alpha
///    is zero on both sides of every velocity face there and both bounds
///    are +0; B vanishes in the next, so alpha_j is E_j alone;
///  - direct accelSurf calls with alpha zero on one side of the face, the
///    other side, and both (an updater never produces the one-sided case:
///    alpha_j does not depend on v_j, so both cells of a v_j face carry
///    the same expansion).
/// Kernels run at `lanes` (0: the widest set); every lane count must give
/// the same digest.
std::uint64_t tieZeroDigest(const BasisSpec& spec, int lanes) {
  static const int kConf[4][3] = {{}, {5}, {3, 4}, {3, 2, 2}};
  static const int kVel[4][3] = {{}, {5}, {5, 3}, {3, 5, 3}};
  Grid pg;
  pg.ndim = spec.ndim();
  for (int d = 0; d < pg.ndim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const bool conf = d < spec.cdim;
    pg.cells[ds] = conf ? kConf[spec.cdim][d] : kVel[spec.vdim][d - spec.cdim];
    // dv = 1.5 exactly: the middle cell's centre lower + (n/2)*dv is 0.0.
    pg.lower[ds] = conf ? 0.0 : -0.75 * pg.cells[ds];
    pg.upper[ds] = conf ? 2.0 + d : 0.75 * pg.cells[ds];
    if (!conf) {
      EXPECT_EQ(pg.cellCenter(d, pg.cells[ds] / 2), 0.0);
    }
  }
  const int np = basisFor(spec).numModes();
  const int npc = basisFor(spec.configSpec()).numModes();
  const Grid cg = confGridOf(spec, pg);
  Field f = seededField(pg, np, 3);
  Field em = seededField(cg, kEmComps * npc, 4);
  int c = 0;
  forEachCell(cg, [&](const MultiIndex& idx) {
    double* e = em.at(idx);
    // Components are Ex,Ey,Ez,Bx,By,Bz,phi,psi, npc coefficients each.
    if (c % 3 == 0) std::fill(e, e + kEmComps * npc, 0.0);
    if (c % 3 == 1) std::fill(e + 3 * npc, e + 6 * npc, 0.0);
    ++c;
  });
  Fnv1a h;
  hashAdvance(spec, pg, lanes, f, em, h);

  const VlasovCompiledKernels* compiled = findCompiledKernels(spec.name());
  EXPECT_NE(compiled, nullptr) << spec.name();
  if (!compiled) return 0;
  const int B = lanes == 0 ? compiled->maxLanes(spec.cdim, spec.vdim) : lanes;
  const VlasovLaneKernels* k = compiled->forLanes(B, spec.cdim, spec.vdim);
  EXPECT_NE(k, nullptr) << spec.name() << " B=" << B;
  if (!k) return 0;
  std::vector<double> dxv(static_cast<std::size_t>(spec.ndim()));
  for (int d = 0; d < spec.ndim(); ++d) dxv[static_cast<std::size_t>(d)] = pg.dx(d);
  // Eight faces per case (whole blocks at every lane count), each drawn
  // from its own seed, so every lane count sees the same face data.
  const auto n = static_cast<std::size_t>(np) * static_cast<std::size_t>(B);
  for (int j = 0; j < spec.vdim; ++j)
    for (const int zeroSides : {1, 2, 3})  // bit 0: al == 0, bit 1: ar == 0
      for (int b0 = 0; b0 < 8; b0 += B) {
        std::vector<double> blk[6];  // al, ar, fl, fr, outl, outr
        for (auto& v : blk) v.assign(n, 0.0);
        for (int b = 0; b < B; ++b) {
          SplitMix64 rng{static_cast<std::uint64_t>(100 * j + 10 * zeroSides + b0 + b)};
          for (int a = 0; a < 4; ++a)
            for (int i = 0; i < np; ++i) {
              const double x = rng.uniform();
              if (a >= 2 || !(zeroSides & (1 << a)))
                blk[a][static_cast<std::size_t>(i * B + b)] = x;
            }
        }
        k->accelSurf[j](dxv.data(), blk[0].data(), blk[1].data(), blk[2].data(), blk[3].data(),
                        blk[4].data(), blk[5].data());
        for (int b = 0; b < B; ++b)
          for (int a = 4; a < 6; ++a)
            for (int i = 0; i < np; ++i) h.add(blk[a][static_cast<std::size_t>(i * B + b)]);
      }
  return h.h;
}

TEST(Batch, AdvanceDigestsMatchTheRetiredScalarKernels) {
  // Recorded with the one-cell generated kernels this kernel family
  // replaced (batch lanes 1, compiled without SIMD flags); the B = 1
  // instantiation and the auto lane count must reproduce them bit for bit.
  const std::pair<BasisSpec, std::uint64_t> pinned[] = {
      {{1, 1, 1, BasisFamily::Tensor}, 0xe7180ecf249d4d87ULL},
      {{1, 1, 2, BasisFamily::Tensor}, 0xd13b60c3e0607c8aULL},
      {{1, 1, 2, BasisFamily::Serendipity}, 0x1e23dc148475f409ULL},
      {{1, 1, 3, BasisFamily::Serendipity}, 0x4cba6197b4bea368ULL},
      {{1, 1, 3, BasisFamily::Tensor}, 0x24e871ff5f47d913ULL},
      {{1, 2, 1, BasisFamily::Tensor}, 0x54a8fa265f395b42ULL},
      {{1, 2, 1, BasisFamily::Serendipity}, 0x54a8fa265f395b42ULL},
      {{1, 2, 2, BasisFamily::Serendipity}, 0x1cbd6221b8cd2301ULL},
      {{1, 2, 2, BasisFamily::Tensor}, 0xf8c3d906e00b4b51ULL},
      {{1, 2, 3, BasisFamily::Serendipity}, 0x73788bb7510ac975ULL},
      {{1, 3, 1, BasisFamily::Serendipity}, 0xd3a332f51dbc609aULL},
      {{1, 3, 1, BasisFamily::Tensor}, 0xd3a332f51dbc609aULL},
      {{1, 3, 2, BasisFamily::Serendipity}, 0x5a87cc331fd110c6ULL},
      {{2, 2, 1, BasisFamily::Serendipity}, 0xa1930a3121cd42f9ULL},
      {{2, 2, 1, BasisFamily::Tensor}, 0xa1930a3121cd42f9ULL},
      {{2, 2, 2, BasisFamily::Serendipity}, 0x2e6e701e87698779ULL},
      {{2, 3, 1, BasisFamily::Serendipity}, 0x98b819debd6d328fULL},
      {{2, 3, 1, BasisFamily::Tensor}, 0x98b819debd6d328fULL},
      {{2, 3, 2, BasisFamily::Serendipity}, 0xa45ded4227ab59e4ULL},
      {{3, 3, 1, BasisFamily::Serendipity}, 0x438a2f6bc49043e5ULL},
      {{3, 3, 1, BasisFamily::MaximalOrder}, 0x2eab6490d91873c2ULL},
  };
  for (const auto& [spec, expected] : pinned)
    for (const int lanes : {1, 0})
      EXPECT_EQ(advanceDigest(spec, lanes), expected)
          << spec.name() << " lanes=" << lanes << std::hex << " got 0x"
          << advanceDigest(spec, lanes);
}

TEST(Batch, TieAndZeroPenaltyDigestsMatchTheFmaxKernels) {
  // Recorded with the kernels that rendered tau as std::fmax(tauL, tauR)
  // (batch lanes 1 and auto gave the same digests); the std::max-order
  // select must reproduce them bit for bit on ties and zero bounds.
  const std::pair<BasisSpec, std::uint64_t> pinned[] = {
      {{1, 1, 1, BasisFamily::Tensor}, 0x6e847ca6da6d5c36ULL},
      {{1, 1, 2, BasisFamily::Tensor}, 0xdae06d185b55acc2ULL},
      {{1, 1, 2, BasisFamily::Serendipity}, 0x679d1a8dd9d19ea0ULL},
      {{1, 1, 3, BasisFamily::Serendipity}, 0x3fdfcb23eec3193cULL},
      {{1, 1, 3, BasisFamily::Tensor}, 0x4d2be9ad36aaa4d9ULL},
      {{1, 2, 1, BasisFamily::Tensor}, 0x2585c385304599a9ULL},
      {{1, 2, 1, BasisFamily::Serendipity}, 0x2585c385304599a9ULL},
      {{1, 2, 2, BasisFamily::Serendipity}, 0x2a4e1ed9aa94d3ddULL},
      {{1, 2, 2, BasisFamily::Tensor}, 0x4ba2496b7a8d1226ULL},
      {{1, 2, 3, BasisFamily::Serendipity}, 0x4b788fd0fa4d6f60ULL},
      {{1, 3, 1, BasisFamily::Serendipity}, 0x7b6627bf110df789ULL},
      {{1, 3, 1, BasisFamily::Tensor}, 0x7b6627bf110df789ULL},
      {{1, 3, 2, BasisFamily::Serendipity}, 0x568b9ef83c822a09ULL},
      {{2, 2, 1, BasisFamily::Serendipity}, 0xe758587c3fd7bb62ULL},
      {{2, 2, 1, BasisFamily::Tensor}, 0xe758587c3fd7bb62ULL},
      {{2, 2, 2, BasisFamily::Serendipity}, 0xad0c1e7f3c01277fULL},
      {{2, 3, 1, BasisFamily::Serendipity}, 0x9d1fc03c21f8021ULL},
      {{2, 3, 1, BasisFamily::Tensor}, 0x9d1fc03c21f8021ULL},
      {{2, 3, 2, BasisFamily::Serendipity}, 0x89c10f9434478801ULL},
      {{3, 3, 1, BasisFamily::Serendipity}, 0x229771e36944a52aULL},
      {{3, 3, 1, BasisFamily::MaximalOrder}, 0x347e711725a3a4fcULL},
  };
  for (const auto& [spec, expected] : pinned)
    for (const int lanes : {1, 0})
      EXPECT_EQ(tieZeroDigest(spec, lanes), expected)
          << spec.name() << " lanes=" << lanes << std::hex << " got 0x"
          << tieZeroDigest(spec, lanes);
}

// ------------------------------------------ updater-level identity (LBO)

TEST(Batch, LboAdvanceMatchesScalarBitwiseWithRemainders) {
  const BasisSpec spec{1, 2, 2, BasisFamily::Serendipity};
  const Grid conf = Grid::make({3}, {0.0}, {1.0});
  // 5*3 = 15 velocity cells: one full block of 8 plus remainder (and
  // 3 blocks of 4 plus remainder).
  const Grid vel = Grid::make({5, 3}, {-5.0, -4.0}, {5.0, 4.0});
  const Grid pg = Grid::phase(conf, vel);
  const int np = basisFor(spec).numModes();

  // A strictly positive distribution keeps the weak division sane.
  Field f(pg, np);
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> u(-0.05, 0.05);
  forEachCell(pg, [&](const MultiIndex& idx) {
    double* c = f.at(idx);
    c[0] = 1.0 + u(rng);
    for (int l = 1; l < np; ++l) c[l] = u(rng);
  });

  LboUpdater lbo(spec, pg, LboParams{1.0, 2.5, true});

  // Widths outside kKernelBatchLanes fall back to 1 (the per-lane
  // scratch is sized for the widest entry).
  lbo.setBatchLanes(16);
  EXPECT_EQ(lbo.activeBatchLanes(), 1);
  lbo.setBatchLanes(1);
  EXPECT_EQ(lbo.activeBatchLanes(), 1);
  Field rhsScalar(pg, np);
  rhsScalar.setZero();
  const double freqScalar = lbo.advance(f, rhsScalar);

  for (const int B : kKernelBatchLanes) {
    lbo.setBatchLanes(B);
    Field rhsBatched(pg, np);
    rhsBatched.setZero();
    const double freqBatched = lbo.advance(f, rhsBatched);
    EXPECT_EQ(freqBatched, freqScalar) << "B=" << B;
    EXPECT_EQ(maxAbsDiff(rhsBatched, rhsScalar), 0.0) << "B=" << B;
  }

  lbo.setBatchLanes(0);
  EXPECT_EQ(lbo.activeBatchLanes(), 8);
  Field rhsAuto(pg, np);
  rhsAuto.setZero();
  lbo.advance(f, rhsAuto);
  EXPECT_EQ(maxAbsDiff(rhsAuto, rhsScalar), 0.0);

  // Raw operator pieces exercise drag-only and diffusion-only routing.
  const Grid cgrid = lbo.confGrid();
  const int npc = lbo.numConfModes();
  Field uMom(cgrid, 2 * npc), vtSq(cgrid, npc);
  lbo.primitiveMoments(f, uMom, vtSq);
  for (const int lanes : {1, 8}) {
    lbo.setBatchLanes(lanes);
    Field rd(pg, np), rf(pg, np);
    rd.setZero();
    rf.setZero();
    lbo.dragTerm(f, uMom, rd);
    lbo.diffusionTerm(f, vtSq, rf);
    if (lanes == 1) {
      rhsScalar = std::move(rd);
      rhsAuto = std::move(rf);
    } else {
      EXPECT_EQ(maxAbsDiff(rd, rhsScalar), 0.0);
      EXPECT_EQ(maxAbsDiff(rf, rhsAuto), 0.0);
    }
  }
}

// ------------------------------------------- end-to-end Landau determinism

ScalarFn maxwellian1x1v(double n0, double vt, double pertAmp, double k) {
  return [=](const double* z) {
    const double x = z[0], v = z[1];
    return n0 * (1.0 + pertAmp * std::cos(k * x)) / std::sqrt(2.0 * kPi * vt * vt) *
           std::exp(-0.5 * v * v / (vt * vt));
  };
}

TEST(Batch, LandauRunBatchedMatchesScalarBitwise) {
  const double k = 0.5;
  const auto makeSim = [&](int lanes) {
    auto b = Simulation::builder();
    b.confGrid(Grid::make({8}, {0.0}, {2.0 * kPi / k}))
        .basis(2, BasisFamily::Serendipity)
        .species("elc", -1.0, 1.0, Grid::make({13}, {-6.0}, {6.0}),
                 maxwellian1x1v(1.0, 1.0, 0.05, k))
        .field(MaxwellParams{})
        .initField([=](const double* x, double* em) {
          for (int c = 0; c < 8; ++c) em[c] = 0.0;
          em[0] = -0.05 * std::sin(k * x[0]) / k;
        })
        .stepper(Stepper::SspRk3)
        .cflFrac(0.8)
        .batchLanes(lanes);
    return b.build();
  };
  Simulation scalar = makeSim(1);
  Simulation batched = makeSim(0);
  for (int i = 0; i < 5; ++i) {
    const double dtS = scalar.step();
    const double dtB = batched.step();
    ASSERT_EQ(dtS, dtB);
  }
  EXPECT_EQ(maxAbsDiff(scalar.distf(0), batched.distf(0)), 0.0);
}

}  // namespace
}  // namespace vdg
