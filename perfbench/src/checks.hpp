#pragma once
// Output checks. Each compares against an independent computation or a
// property the method must have, never against a stored copy of earlier
// output. A check is a named counter of attempts and failures that keeps
// the worst value it saw next to its limit.

#include <span>
#include <string>
#include <vector>

#include "app/simulation.hpp"

namespace perfbench {

struct Check {
  std::string name;
  double limit = 0.0;
  long attempted = 0;
  long failed = 0;
  double worst = 0.0;  ///< largest recorded value (NaN once a NaN was seen)

  /// One attempt: passes when value <= limit (a NaN fails).
  void record(double value);
};

class CheckBook {
 public:
  /// The check with this name, created with `limit` on first use.
  Check& operator()(const std::string& name, double limit);
  [[nodiscard]] const std::vector<Check>& all() const { return checks_; }
  [[nodiscard]] long attempted() const;
  [[nodiscard]] long failed() const;

 private:
  std::vector<Check> checks_;
};

// --- limits (see perfbench/README.md for how each was chosen) ----------

/// Relative mass change of a species over one step (one round): periodic
/// domain, conservative scheme, so round-off only.
inline constexpr double kMassTol = 1e-12;
/// Relative growth of ||f||^2 of a collisionless species over one step:
/// the penalty flux makes the semi-discrete L2 norm non-increasing; only
/// round-off may show growth.
inline constexpr double kL2GrowthTol = 1e-12;
/// LBO density/momentum/energy and BGK density change rates, relative to
/// nu times the species' moment scale: round-off only.
inline constexpr double kCollisionMomentTol = 1e-12;
/// Initial electric energy against the analytic Gauss-law energy of the
/// seeded mode set (scaled by the measured mean density): the p2 projection
/// error of the |n| <= 3 modes on the 32^2 grid, measured 2.2e-7 to 2.6e-7
/// over seeds 1-4.
inline constexpr double kGaussEnergyTol = 2e-6;
/// True residual ||A phi - b|| / ||b|| of a Poisson solve recomputed
/// through applyMinusLaplacian: the solver stops at cgTol on its recurrence
/// residual, which can drift from the true one by a few orders of round-off.
inline constexpr double kTrueResidualTol = 1e-10;

// --- independent computations -------------------------------------------

/// m * int f dx dv of one distribution function (its own quadrature-free
/// mode-0 sum; no Simulation diagnostics involved).
[[nodiscard]] double speciesMass(const vdg::Basis& basis, const vdg::Field& f, double mass);
/// ||f||^2 = int f^2 dx dv (orthonormal modal basis).
[[nodiscard]] double speciesL2(const vdg::Field& f);

/// Domain integrals of the density, momentum (per velocity dim) and
/// energy moments of `df`, each divided by nu times the matching moment
/// of |f|'s scale (int f, vmax int f, vmax^2 int f).
struct MomentRates {
  double density = 0.0;
  double momentum = 0.0;  ///< max over velocity dims
  double energy = 0.0;
};
[[nodiscard]] MomentRates collisionMomentRates(const vdg::BasisSpec& spec,
                                               const vdg::Grid& phaseGrid, const vdg::Field& f,
                                               const vdg::Field& df, double nu);

/// ||A phi - b|| / ||b|| with b = rho / eps0 minus its mean (the zero-mean
/// gauge of a periodic solve) and A the solver's homogeneous operator.
[[nodiscard]] double poissonTrueResidual(const vdg::PoissonSolver& solver,
                                         std::span<const double> rho,
                                         std::span<const double> phi);

/// Number of interior doubles that differ bitwise between two states of
/// the same layout (NaN-safe: compares bytes).
[[nodiscard]] long bitwiseDifferences(const vdg::StateVector& a, const vdg::StateVector& b);

}  // namespace perfbench
