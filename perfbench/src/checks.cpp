#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "dg/moments.hpp"

namespace perfbench {

using namespace vdg;

namespace {

/// Index of the constant mode (all-zero multi-index) of a basis.
int constantMode(const Basis& b) {
  for (int l = 0; l < b.numModes(); ++l) {
    bool zero = true;
    for (int d = 0; d < b.ndim(); ++d) zero = zero && b.mode(l)[d] == 0;
    if (zero) return l;
  }
  return 0;
}

double cellJacobian(const Grid& g) {
  double jac = 1.0;
  for (int d = 0; d < g.ndim; ++d) jac *= 0.5 * g.dx(d);
  return jac;
}

/// int u dx of component `comp` (numModes wide) of a modal field. The
/// basis is orthonormal on [-1, 1]^ndim, so only the constant mode
/// psi_0 = 2^(-ndim/2) integrates to nonzero: 2^(ndim/2) per cell.
double domainIntegral(const Basis& b, const Field& u, int comp) {
  const int c0 = constantMode(b);
  double s = 0.0;
  forEachCell(u.grid(), [&](const MultiIndex& idx) { s += u.at(idx)[comp * b.numModes() + c0]; });
  return s * cellJacobian(u.grid()) * std::pow(2.0, 0.5 * b.ndim());
}

}  // namespace

void Check::record(double value) {
  ++attempted;
  if (!(value <= limit)) ++failed;
  if (std::isnan(value) || std::isnan(worst))
    worst = std::nan("");
  else
    worst = attempted == 1 ? value : std::max(worst, value);
}

Check& CheckBook::operator()(const std::string& name, double limit) {
  for (Check& c : checks_)
    if (c.name == name) return c;
  checks_.push_back(Check{name, limit});
  return checks_.back();
}

long CheckBook::attempted() const {
  long n = 0;
  for (const Check& c : checks_) n += c.attempted;
  return n;
}

long CheckBook::failed() const {
  long n = 0;
  for (const Check& c : checks_) n += c.failed;
  return n;
}

double speciesMass(const Basis& basis, const Field& f, double mass) {
  return mass * domainIntegral(basis, f, 0);
}

double speciesL2(const Field& f) {
  double s = 0.0;
  forEachCell(f.grid(), [&](const MultiIndex& idx) {
    const double* c = f.at(idx);
    for (int l = 0; l < f.ncomp(); ++l) s += c[l] * c[l];
  });
  return s * cellJacobian(f.grid());
}

MomentRates collisionMomentRates(const BasisSpec& spec, const Grid& phaseGrid, const Field& f,
                                 const Field& df, double nu) {
  const MomentUpdater mom(spec, phaseGrid);
  const Grid cg = mom.confGrid();
  const int npc = mom.numConfModes();
  const Basis& cb = basisFor(spec.configSpec());
  Field m0(cg, npc), m1(cg, 3 * npc), m2(cg, npc);
  mom.compute(f, &m0, nullptr, nullptr);
  const double n = domainIntegral(cb, m0, 0);
  double vmax = 0.0;
  for (int j = 0; j < spec.vdim; ++j) {
    const auto d = static_cast<std::size_t>(spec.cdim + j);
    vmax = std::max({vmax, std::abs(phaseGrid.lower[d]), std::abs(phaseGrid.upper[d])});
  }
  mom.compute(df, &m0, &m1, &m2);
  MomentRates r;
  r.density = std::abs(domainIntegral(cb, m0, 0)) / (nu * n);
  for (int j = 0; j < spec.vdim; ++j)
    r.momentum = std::max(r.momentum, std::abs(domainIntegral(cb, m1, j)) / (nu * n * vmax));
  r.energy = std::abs(domainIntegral(cb, m2, 0)) / (nu * n * vmax * vmax);
  return r;
}

double poissonTrueResidual(const PoissonSolver& solver, std::span<const double> rho,
                           std::span<const double> phi) {
  const std::size_t n = solver.numUnknowns();
  const int np = solver.numModes();
  const int c0 = constantMode(solver.basis());
  const double eps0 = solver.params().epsilon0;
  std::vector<double> b(rho.begin(), rho.end());
  for (double& v : b) v /= eps0;
  // Zero-mean gauge: remove the mean of the constant-mode coefficients.
  const std::size_t cells = n / static_cast<std::size_t>(np);
  double mean = 0.0;
  for (std::size_t c = 0; c < cells; ++c) mean += b[c * np + c0];
  mean /= static_cast<double>(cells);
  for (std::size_t c = 0; c < cells; ++c) b[c * np + c0] -= mean;
  std::vector<double> ap(n);
  solver.applyMinusLaplacian(phi, ap);
  const std::span<const double> bc = solver.boundaryRhs();
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = ap[i] - b[i] - bc[i];
    rr += r * r;
    bb += b[i] * b[i];
  }
  return std::sqrt(rr / bb);
}

long bitwiseDifferences(const StateVector& a, const StateVector& b) {
  long diff = 0;
  for (int i = 0; i < a.numSlots(); ++i) {
    const Field& fa = a.slot(i);
    const Field& fb = b.slot(i);
    const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(fa.ncomp());
    forEachCell(fa.grid(), [&](const MultiIndex& idx) {
      if (std::memcmp(fa.at(idx), fb.at(idx), bytes) == 0) return;
      for (int l = 0; l < fa.ncomp(); ++l)
        if (std::memcmp(fa.at(idx) + l, fb.at(idx) + l, sizeof(double)) != 0) ++diff;
    });
  }
  return diff;
}

}  // namespace perfbench
