#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "app/updaters.hpp"
#include "collisions/bgk.hpp"
#include "collisions/lbo.hpp"

namespace perfbench {

using namespace vdg;

double now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Run::Run(const Workload& w, const ProfilingSpec& prof) {
  Simulation::Builder b = w.builder;
  b.profiling(prof);
  if (w.ranks > 1)
    dist_ = std::make_unique<DistributedSimulation>(b, w.ranks, /*overlapHalo=*/true);
  else
    sim_.emplace(b.build());
}

double Run::step() { return dist_ ? dist_->step() : sim_->step(); }

StateVector Run::state() const {
  if (dist_) return dist_->gather();
  StateVector s = sim_->state().zerosLike();
  s.copyFrom(sim_->state());
  return s;
}

void Run::restore(const StateVector& s) {
  if (dist_)
    dist_->restore(s, 0.0);
  else
    sim_->restore(s, 0.0);
}

const Profiler* Run::profiler(int r) const {
  if (dist_) return &dist_->rankProfiler(r);
  return sim_->profiler();
}

Reference takeReference(Run& run) {
  Reference ref;
  ref.init = run.state();
  const Simulation& sim = run.rank(0);
  for (int s = 0; s < sim.numSpecies(); ++s) {
    ref.mass.push_back(speciesMass(sim.phaseBasis(s), ref.init.slot(s), sim.speciesConfig(s).mass));
    ref.l2.push_back(speciesL2(ref.init.slot(s)));
  }
  return ref;
}

Round runRound(Run& run, const Reference& ref) {
  run.restore(ref.init);
  Round r;
  const double t0 = now();
  r.tsim = run.step();
  r.wall = now() - t0;
  if (const PoissonFieldUpdater* poisson = run.rank(0).poissonField())
    r.solveIterations = poisson->lastSolveStats().iterations;
  return r;
}

ZoneTotals zoneTotals(const Profiler& p) {
  ZoneTotals z;
  for (const ZoneReport& row : p.report()) {
    auto& e = z.byPath[row.path];
    e.first += row.count;
    e.second += row.seconds;
  }
  return z;
}

ZoneTotals zoneDelta(const ZoneTotals& a, const ZoneTotals& b) {
  ZoneTotals d = a;
  for (const auto& [path, v] : b.byPath) {
    auto& e = d.byPath[path];
    e.first -= v.first;
    e.second -= v.second;
  }
  return d;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double totalDofs(const Simulation& sim) {
  double dofs = 0.0;
  for (int s = 0; s < sim.numSpecies(); ++s)
    dofs += static_cast<double>(sim.phaseGrid(s).parent().numCells()) *
            sim.phaseBasis(s).numModes();
  return dofs;
}

/// (eps0/2) int |E|^2 dx of the em slot of a (global) state.
double electricEnergy(const StateVector& s, const Basis& confBasis, double eps0) {
  const Field& em = s.slot(StateVector::kEmSlot);
  const int npc = confBasis.numModes();
  double jac = 1.0;
  for (int d = 0; d < em.grid().ndim; ++d) jac *= 0.5 * em.grid().dx(d);
  double e2 = 0.0;
  forEachCell(em.grid(), [&](const MultiIndex& idx) {
    const double* u = em.at(idx);
    for (int l = 0; l < 3 * npc; ++l) e2 += u[l] * u[l];
  });
  return 0.5 * eps0 * jac * e2;
}

void finalChecks(Run& run, const Workload& w, const Reference& ref, CheckBook& book) {
  Simulation& sim = run.rank(0);
  // The last step's post-step solve; the stage solves are held to the same
  // tolerance by the solver's own cap/throw, and a direct solve's true
  // residual is recomputed below.
  if (const PoissonFieldUpdater* poisson = sim.poissonField())
    book("krylov_reported_residual", sim.poissonSolver()->params().cgTol)
        .record(poisson->lastSolveStats().relResidual);
  const StateVector end = run.state();
  for (int s = 0; s < sim.numSpecies(); ++s) {
    const SpeciesConfig& sc = sim.speciesConfig(s);
    const BasisSpec spec = sim.phaseBasis(s).spec();
    const Field& f = end.slot(s);
    const Grid& pg = f.grid();
    const auto ss = static_cast<std::size_t>(s);
    const double m = speciesMass(sim.phaseBasis(s), f, sc.mass);
    book("mass_conservation", kMassTol).record(std::abs(m / ref.mass[ss] - 1.0));
    // The penalty flux makes ||f|| non-increasing under Vlasov alone; a
    // collision operator may raise it (BGK does whenever the local
    // Maxwellian's norm exceeds f's), so the check is collisionless only.
    if (!sc.lboCollisions && !sc.collisions)
      book("l2_nonincreasing", kL2GrowthTol).record(speciesL2(f) / ref.l2[ss] - 1.0);
    // Collision operators: each species' own, on the final state.
    if (sc.lboCollisions) {
      Field df(pg, f.ncomp());
      LboUpdater lbo(spec, pg, *sc.lboCollisions);
      lbo.setExecutor(nullptr);
      lbo.advance(f, df);
      const MomentRates r = collisionMomentRates(spec, pg, f, df, sc.lboCollisions->collisionFreq);
      book("lbo_density_moment", kCollisionMomentTol).record(r.density);
      book("lbo_momentum_moment", kCollisionMomentTol).record(r.momentum);
      book("lbo_energy_moment", kCollisionMomentTol).record(r.energy);
    }
    if (sc.collisions) {
      Field df(pg, f.ncomp());
      BgkUpdater bgk(spec, pg, *sc.collisions);
      bgk.setExecutor(nullptr);
      bgk.advance(f, df);
      const MomentRates r = collisionMomentRates(spec, pg, f, df, sc.collisions->collisionFreq);
      book("bgk_density_moment", kCollisionMomentTol).record(r.density);
    }
  }
  if (!w.modes.empty()) {
    const double eps0 = sim.poissonSolver()->params().epsilon0;
    const double e0 = electricEnergy(ref.init, sim.confBasis(), eps0);
    // The projected Maxwellian's velocity integral c (within quadrature
    // error of 1) scales the whole electron density, so the field is c
    // times the analytic one; c is the mean density, measured from the
    // species' mass.
    const double c = ref.mass[0] / (w.boxLength * w.boxLength);
    const double exact = c * c * gaussLawEnergy(w.modes, w.boxLength);
    book("gauss_law_energy", kGaussEnergyTol).record(std::abs(e0 / exact - 1.0));
    const PoissonSolver& solver = *sim.poissonSolver();
    const std::span<const double> rho = sim.poissonField()->lastRho();
    std::vector<double> phi(solver.numUnknowns());
    const PoissonSolver::SolveStats st = solver.solve(rho, phi, nullptr);
    book("krylov_reported_residual", solver.params().cgTol).record(st.relResidual);
    book("krylov_true_residual", kTrueResidualTol).record(poissonTrueResidual(solver, rho, phi));
  }
  if (w.ranks > 1) {
    // Replay kBitwiseSteps steps from the initial state on the ranks and on
    // a serial simulation of the same inputs, and compare bits.
    constexpr int kBitwiseSteps = 3;
    run.restore(ref.init);
    for (int i = 0; i < kBitwiseSteps; ++i) run.step();
    const StateVector dist = run.state();
    Workload ws = w;
    ws.ranks = 1;
    Run serial(ws, ProfilingSpec{});
    serial.restore(ref.init);
    for (int i = 0; i < kBitwiseSteps; ++i) serial.step();
    book("rank_serial_bitwise", 0.0)
        .record(static_cast<double>(bitwiseDifferences(dist, serial.state())));
  }
}

}  // namespace perfbench
