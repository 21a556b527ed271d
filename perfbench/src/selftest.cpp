// Self-test of the output checks: a check that cannot fail proves nothing,
// so each one is shown passing on the clean input and failing on a
// deliberately corrupted one.

#include <cmath>
#include <cstdio>
#include <string>

#include "app/updaters.hpp"
#include "collisions/bgk.hpp"
#include "collisions/lbo.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace vdg;

namespace {

int cases = 0, caught = 0;

/// One case: `clean` must pass the limit and `corrupt` must fail it.
void expect(const std::string& name, const std::string& corruption, double limit, double clean,
            double corrupt) {
  Check c{name, limit}, d{name, limit};
  c.record(clean);
  d.record(corrupt);
  const bool ok = c.failed == 0 && d.failed == 1;
  ++cases;
  if (ok) ++caught;
  std::printf("selftest %-26s %s  clean %.3e  %s: %.3e  (limit %.1e)\n", name.c_str(),
              ok ? "ok  " : "FAIL", clean, corruption.c_str(), corrupt, limit);
}

void scale(Field& f, double a) {
  forEachCell(f.grid(), [&](const MultiIndex& idx) {
    for (int l = 0; l < f.ncomp(); ++l) f.at(idx)[l] *= a;
  });
}

/// df += eps * f
void addScaled(Field& df, const Field& f, double eps) {
  forEachCell(f.grid(), [&](const MultiIndex& idx) {
    for (int l = 0; l < f.ncomp(); ++l) df.at(idx)[l] += eps * f.at(idx)[l];
  });
}

}  // namespace

int runSelfTest(std::uint64_t seed) {
  // Mass and L2 over one step of the collisionless workload: mass against
  // a final state scaled by 1 + 1e-9, L2 against the step run backwards
  // (2 f0 - f1, first order in dt: the penalty flux turned anti-dissipative).
  {
    const Workload w = makeWorkload("vm2x3v_p2", seed);
    Run run(w, ProfilingSpec{});
    const Reference ref = takeReference(run);
    run.step();
    StateVector end = run.state();
    const Simulation& sim = run.rank(0);
    const double m1 = speciesMass(sim.phaseBasis(0), end.slot(0), 1.0);
    const double l1 = speciesL2(end.slot(0));
    Field back = end.slot(0);
    forEachCell(back.grid(), [&](const MultiIndex& idx) {
      for (int l = 0; l < back.ncomp(); ++l)
        back.at(idx)[l] = 2.0 * ref.init.slot(0).at(idx)[l] - back.at(idx)[l];
    });
    const double l2 = speciesL2(back);
    scale(end.slot(0), 1.0 + 1e-9);
    const double m2 = speciesMass(sim.phaseBasis(0), end.slot(0), 1.0);
    expect("mass_conservation", "f*(1+1e-9)", kMassTol, std::abs(m1 / ref.mass[0] - 1.0),
           std::abs(m2 / ref.mass[0] - 1.0));
    expect("l2_nonincreasing", "2*f0-f1", kL2GrowthTol, l1 / ref.l2[0] - 1.0,
           l2 / ref.l2[0] - 1.0);
  }
  // Collision moments on the collisional workload's initial state: the raw
  // LBO operator without its conservation correction, and a density leak
  // of 1e-9 nu f added to the LBO and BGK outputs.
  {
    const Workload w = makeWorkload("coll2x3v_p2", seed);
    Run run(w, ProfilingSpec{});
    const StateVector st = run.state();
    const Simulation& sim = run.rank(0);
    for (int s = 0; s < sim.numSpecies(); ++s) {
      const SpeciesConfig& sc = sim.speciesConfig(s);
      const BasisSpec spec = sim.phaseBasis(s).spec();
      const Field& f = st.slot(s);
      Field df(f.grid(), f.ncomp());
      if (sc.lboCollisions) {
        const LboParams p = *sc.lboCollisions;
        const double nu = p.collisionFreq;
        LboUpdater lbo(spec, f.grid(), p);
        lbo.setExecutor(nullptr);
        lbo.advance(f, df);
        const MomentRates clean = collisionMomentRates(spec, f.grid(), f, df, nu);
        Field leak = df;
        addScaled(leak, f, 1e-9 * nu);
        LboParams raw = p;
        raw.momentFix = false;
        LboUpdater rawLbo(spec, f.grid(), raw);
        rawLbo.setExecutor(nullptr);
        Field dr(f.grid(), f.ncomp());
        rawLbo.advance(f, dr);
        const MomentRates bad = collisionMomentRates(spec, f.grid(), f, dr, nu);
        expect("lbo_density_moment", "C[f]+1e-9*nu*f", kCollisionMomentTol, clean.density,
               collisionMomentRates(spec, f.grid(), f, leak, nu).density);
        expect("lbo_momentum_moment", "no momentFix", kCollisionMomentTol, clean.momentum,
               bad.momentum);
        expect("lbo_energy_moment", "no momentFix", kCollisionMomentTol, clean.energy,
               bad.energy);
      }
      if (sc.collisions) {
        const double nu = sc.collisions->collisionFreq;
        BgkUpdater bgk(spec, f.grid(), *sc.collisions);
        bgk.setExecutor(nullptr);
        Field db(f.grid(), f.ncomp());
        bgk.advance(f, db);
        const double clean = collisionMomentRates(spec, f.grid(), f, db, nu).density;
        addScaled(db, f, 1e-9 * nu);
        expect("bgk_density_moment", "C[f]+1e-9*nu*f", kCollisionMomentTol, clean,
               collisionMomentRates(spec, f.grid(), f, db, nu).density);
      }
    }
  }
  // Gauss-law energy with one wrong mode amplitude, and the Krylov
  // residuals of a solver run at a loose tolerance / of a perturbed phi.
  {
    const Workload w = makeWorkload(kPoissonScenario, seed);
    Run run(w, ProfilingSpec{});
    const Simulation& sim = run.rank(0);
    const StateVector st = run.state();
    const PoissonSolver& solver = *sim.poissonSolver();
    const double e0 = electricEnergy(st, sim.confBasis(), solver.params().epsilon0);
    std::vector<DensityMode> wrong = w.modes;
    std::size_t big = 0;
    for (std::size_t i = 0; i < wrong.size(); ++i)
      if (gaussLawEnergy({wrong[i]}, w.boxLength) > gaussLawEnergy({wrong[big]}, w.boxLength))
        big = i;
    wrong[big].amp *= 1.001;
    const double c2 = std::pow(speciesMass(sim.phaseBasis(0), st.slot(0), 1.0), 2) /
                      std::pow(w.boxLength, 4);
    expect("gauss_law_energy", "largest mode amp*1.001", kGaussEnergyTol,
           std::abs(e0 / (c2 * gaussLawEnergy(w.modes, w.boxLength)) - 1.0),
           std::abs(e0 / (c2 * gaussLawEnergy(wrong, w.boxLength)) - 1.0));

    const std::span<const double> rho = sim.poissonField()->lastRho();
    std::vector<double> phi(solver.numUnknowns()), phiLoose(solver.numUnknowns());
    const double tol = solver.params().cgTol;
    const PoissonSolver::SolveStats st1 = solver.solve(rho, phi, nullptr);
    PoissonParams loose = solver.params();
    loose.cgTol = 1e-6;
    const PoissonSolver looseSolver(solver.basis().spec(), solver.grid(), loose);
    const PoissonSolver::SolveStats st2 = looseSolver.solve(rho, phiLoose, nullptr);
    expect("krylov_reported_residual", "cgTol=1e-6 solve", tol, st1.relResidual,
           st2.relResidual);
    const double trueClean = poissonTrueResidual(solver, rho, phi);
    for (double& v : phi) v *= 1.0 + 1e-9;
    expect("krylov_true_residual", "phi*(1+1e-9)", kTrueResidualTol, trueClean,
           poissonTrueResidual(solver, rho, phi));
  }
  // Rank-parallel vs serial, with one coefficient moved by one ulp.
  {
    const Workload ws = makeWorkload("vm2x3v_p2", seed);
    Workload w = ws;
    w.ranks = kParRanks;
    Run dist(w, ProfilingSpec{});
    Run serial(ws, ProfilingSpec{});
    for (int i = 0; i < 2; ++i) {
      dist.step();
      serial.step();
    }
    StateVector a = dist.state();
    const StateVector b = serial.state();
    const double clean = static_cast<double>(bitwiseDifferences(a, b));
    MultiIndex idx{};
    double* v = a.slot(0).at(idx);
    *v = std::nextafter(*v, 1e300);
    expect("rank_serial_bitwise", "one value +1 ulp", 0.0, clean,
           static_cast<double>(bitwiseDifferences(a, b)));
  }
  std::printf("{\"selftest\": true, \"cases\": %d, \"caught\": %d}\n", cases, caught);
  return caught == cases ? 0 : 1;
}

}  // namespace perfbench
