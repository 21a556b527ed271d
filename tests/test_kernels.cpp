// Tests of the pre-generated (CAS-emitted, compiled) kernels: they must
// reproduce the sparse-tape interpreter to machine precision — both paths
// evaluate the same exactly-integrated tensors, one as unrolled compiled
// source (the paper's deployed form), one as data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numbers>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dg/vlasov.hpp"
#include "kernels/registry.hpp"
#include "tensors/emit.hpp"

namespace vdg {
namespace {

Grid phaseGridFor(const BasisSpec& spec, int nx, int nv) {
  Grid g;
  g.ndim = spec.ndim();
  for (int d = 0; d < spec.cdim; ++d) {
    g.cells[static_cast<std::size_t>(d)] = nx;
    g.lower[static_cast<std::size_t>(d)] = 0.0;
    g.upper[static_cast<std::size_t>(d)] = 2.0 * std::numbers::pi;
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

TEST(CompiledKernels, RegistryIsPopulated) {
  EXPECT_GE(numCompiledKernelSets(), 11);
  EXPECT_NE(findCompiledKernels("1x1v_p1_ten"), nullptr);
  EXPECT_NE(findCompiledKernels("2x3v_p2_ser"), nullptr);
  EXPECT_EQ(findCompiledKernels("9x9v_p9_xyz"), nullptr);
}

TEST(CompiledKernels, ListSpecsIsSortedAndConsistent) {
  const std::vector<std::string> names = listCompiledKernelSpecs();
  EXPECT_EQ(static_cast<int>(names.size()), numCompiledKernelSets());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& n : names) EXPECT_NE(findCompiledKernels(n), nullptr);
  EXPECT_NE(std::find(names.begin(), names.end(), "1x1v_p1_ten"), names.end());
}

TEST(CompiledKernels, DuplicateRegistrationIsCountedAndLastWins) {
  // Assertions are delta-based against process-global state so the test
  // stays valid under --gtest_repeat (re-registrations persist).
  const int before = numDuplicateKernelRegistrations();

  const VlasovCompiledKernels* orig = findCompiledKernels("1x1v_p1_ten");
  ASSERT_NE(orig, nullptr);
  const VlasovCompiledKernels saved = *orig;

  VlasovCompiledKernels clone = saved;
  registerCompiledKernels("1x1v_p1_ten", clone);
  EXPECT_EQ(numDuplicateKernelRegistrations(), before + 1);
  // Last registration wins but the entry set is unchanged.
  EXPECT_EQ(static_cast<int>(listCompiledKernelSpecs().size()), numCompiledKernelSets());
  const VlasovCompiledKernels* now = findCompiledKernels("1x1v_p1_ten");
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(now->byLanes[0].streamVol, saved.byLanes[0].streamVol);

  // A registration for a fresh spec name is not a duplicate (on repeat
  // runs the fake entry already exists, so it counts as one then).
  const bool fakePresent = findCompiledKernels("0x0v_p0_test") != nullptr;
  registerCompiledKernels("0x0v_p0_test", clone);
  EXPECT_EQ(numDuplicateKernelRegistrations(), before + 1 + (fakePresent ? 1 : 0));
  EXPECT_NE(findCompiledKernels("0x0v_p0_test"), nullptr);
}

class CompiledBySpec : public ::testing::TestWithParam<BasisSpec> {};

TEST_P(CompiledBySpec, MatchesTapeInterpreter) {
  const BasisSpec spec = GetParam();
  const Grid pg = phaseGridFor(spec, 4, 4);
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
  params.flux = FluxType::Penalty;  // the flux the generated kernels bake in
  VlasovUpdater fast(spec, pg, params);
  ASSERT_TRUE(fast.usesCompiledKernels()) << spec.name();
  VlasovUpdater slow(spec, pg, params);
  slow.disableCompiledKernels();

  Field f = randomField(pg, np, 3);
  Field em = randomField(cg, kEmComps * npc, 5);
  for (int d = 0; d < spec.cdim; ++d) {
    f.syncPeriodic(d);
    em.syncPeriodic(d);
  }
  Field rhsFast(pg, np), rhsSlow(pg, np);
  const double freqFast = fast.advance(f, &em, rhsFast);
  const double freqSlow = slow.advance(f, &em, rhsSlow);
  EXPECT_NEAR(freqFast, freqSlow, 1e-12 * freqSlow);

  double maxAbs = 0.0, maxDiff = 0.0;
  forEachCell(pg, [&](const MultiIndex& idx) {
    for (int l = 0; l < np; ++l) {
      maxAbs = std::max(maxAbs, std::abs(rhsSlow.at(idx)[l]));
      maxDiff = std::max(maxDiff, std::abs(rhsFast.at(idx)[l] - rhsSlow.at(idx)[l]));
    }
  });
  EXPECT_GT(maxAbs, 0.0);
  EXPECT_LT(maxDiff, 1e-11 * maxAbs);
}

TEST_P(CompiledBySpec, MatchesTapeForFreeStreaming) {
  const BasisSpec spec = GetParam();
  const Grid pg = phaseGridFor(spec, 3, 3);
  const int np = basisFor(spec).numModes();
  VlasovParams params;
  VlasovUpdater fast(spec, pg, params);
  VlasovUpdater slow(spec, pg, params);
  slow.disableCompiledKernels();
  Field f = randomField(pg, np, 17);
  for (int d = 0; d < spec.cdim; ++d) f.syncPeriodic(d);
  Field rhsFast(pg, np), rhsSlow(pg, np);
  fast.advance(f, nullptr, rhsFast);
  slow.advance(f, nullptr, rhsSlow);
  double maxAbs = 0.0, maxDiff = 0.0;
  forEachCell(pg, [&](const MultiIndex& idx) {
    for (int l = 0; l < np; ++l) {
      maxAbs = std::max(maxAbs, std::abs(rhsSlow.at(idx)[l]));
      maxDiff = std::max(maxDiff, std::abs(rhsFast.at(idx)[l] - rhsSlow.at(idx)[l]));
    }
  });
  EXPECT_LT(maxDiff, 1e-11 * std::max(maxAbs, 1e-30));
}

TEST(CompiledKernels, CentralFluxFallsBackToTapes) {
  const BasisSpec spec{1, 1, 2, BasisFamily::Serendipity};
  const Grid pg = phaseGridFor(spec, 4, 4);
  VlasovParams params;
  params.flux = FluxType::Central;
  const VlasovUpdater up(spec, pg, params);
  EXPECT_FALSE(up.usesCompiledKernels());
}

/// Every spec tools/gen_kernels generates.
const BasisSpec kGeneratedSpecs[] = {
    {1, 1, 1, BasisFamily::Tensor},      {1, 1, 2, BasisFamily::Tensor},
    {1, 1, 2, BasisFamily::Serendipity}, {1, 1, 3, BasisFamily::Serendipity},
    {1, 1, 3, BasisFamily::Tensor},      {1, 2, 1, BasisFamily::Tensor},
    {1, 2, 1, BasisFamily::Serendipity}, {1, 2, 2, BasisFamily::Serendipity},
    {1, 2, 2, BasisFamily::Tensor},      {1, 2, 3, BasisFamily::Serendipity},
    {1, 3, 1, BasisFamily::Serendipity}, {1, 3, 1, BasisFamily::Tensor},
    {1, 3, 2, BasisFamily::Serendipity}, {2, 2, 1, BasisFamily::Serendipity},
    {2, 2, 1, BasisFamily::Tensor},      {2, 2, 2, BasisFamily::Serendipity},
    {2, 3, 1, BasisFamily::Serendipity}, {2, 3, 1, BasisFamily::Tensor},
    {2, 3, 2, BasisFamily::Serendipity}, {3, 3, 1, BasisFamily::Serendipity},
    {3, 3, 1, BasisFamily::MaximalOrder},
};

TEST(CompiledKernels, GeneratedSpecListCoversTheRegistry) {
  std::vector<std::string> listed;
  for (const BasisSpec& spec : kGeneratedSpecs) listed.push_back(spec.name());
  std::sort(listed.begin(), listed.end());
  std::vector<std::string> registered = listCompiledKernelSpecs();
  // The fake entry DuplicateRegistrationIsCountedAndLastWins registers.
  std::erase(registered, "0x0v_p0_test");
  EXPECT_EQ(listed, registered);
}

TEST(CompiledKernels, EmittedBodiesCallNoFunctionButFabs) {
  // A library call in a lane loop (std::fmax, std::max, std::sqrt, ...)
  // makes the compiler scalarize the whole kernel, one call per lane;
  // std::fabs alone compiles to a sign-bit mask.
  for (const BasisSpec& spec : kGeneratedSpecs) {
    std::istringstream tu(emitKernelTranslationUnit(spec));
    std::set<std::string> called;
    int kernels = 0;
    bool inKernel = false;
    for (std::string line; std::getline(tu, line);) {
      if (line.rfind("void vlasov_", 0) == 0) {
        inKernel = true;
        ++kernels;
        continue;
      }
      if (line == "}") inKernel = false;
      if (!inKernel) continue;
      // Every identifier (with :: qualifiers) directly before a '('.
      for (std::size_t p = line.find('('); p != std::string::npos; p = line.find('(', p + 1)) {
        std::size_t b = p;
        while (b > 0 && (std::isalnum(static_cast<unsigned char>(line[b - 1])) ||
                         line[b - 1] == '_' || line[b - 1] == ':'))
          --b;
        if (b < p) called.insert(line.substr(b, p - b));
      }
    }
    EXPECT_EQ(kernels, 2 + spec.cdim + spec.vdim) << spec.name();
    EXPECT_EQ(called, std::set<std::string>{"std::fabs"}) << spec.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, CompiledBySpec, ::testing::ValuesIn(kGeneratedSpecs),
                         [](const auto& info) { return info.param.name(); });

}  // namespace
}  // namespace vdg
