#pragma once
// The timed loop shared by the end-to-end and the traced runs: one built
// simulation (serial or rank-parallel), advanced in rounds of one step that
// each restart from the same initial state, so every round does the same
// work however long the run is.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/distributed.hpp"
#include "app/simulation.hpp"
#include "checks.hpp"
#include "workloads.hpp"

namespace perfbench {

[[nodiscard]] double now();
[[nodiscard]] double median(std::vector<double> v);

/// A Simulation, or a DistributedSimulation for ranks > 1, behind one
/// step/snapshot/restore interface.
class Run {
 public:
  Run(const Workload& w, const vdg::ProfilingSpec& prof);
  double step();
  /// Copy of the (gathered, for several ranks) global state.
  [[nodiscard]] vdg::StateVector state() const;
  /// Restart from a state taken with state(), at t = 0.
  void restore(const vdg::StateVector& s);
  [[nodiscard]] int ranks() const { return dist_ ? dist_->numRanks() : 1; }
  [[nodiscard]] vdg::Simulation& rank(int r) { return dist_ ? dist_->rankSim(r) : *sim_; }
  [[nodiscard]] const vdg::Profiler* profiler(int r) const;
  [[nodiscard]] vdg::DistributedSimulation* distributed() { return dist_.get(); }

 private:
  std::optional<vdg::Simulation> sim_;
  std::unique_ptr<vdg::DistributedSimulation> dist_;
};

/// Per-species reference values of the initial state for the end checks.
struct Reference {
  vdg::StateVector init;
  std::vector<double> mass, l2;
};
[[nodiscard]] Reference takeReference(Run& run);

struct Round {
  double wall = 0.0;  ///< stepping wall seconds (the step() call only)
  double tsim = 0.0;  ///< simulated time advanced (the step's dt)
  int solveIterations = 0;  ///< Poisson: iterations of the post-step solve
};

/// One round: restore the initial state and take one timed step. Every
/// round repeats the same deterministic step, so its output is checked
/// once, on the last round's end state, by finalChecks.
Round runRound(Run& run, const Reference& ref);

/// Flattened zone tree of one profiler: path -> (count, seconds).
struct ZoneTotals {
  std::map<std::string, std::pair<std::uint64_t, double>> byPath;
};
[[nodiscard]] ZoneTotals zoneTotals(const vdg::Profiler& p);
/// a - b, path by path.
[[nodiscard]] ZoneTotals zoneDelta(const ZoneTotals& a, const ZoneTotals& b);

/// What one run reports: its checks, its metrics (end-to-end or per-layer)
/// and descriptive figures for the result file.
struct Result {
  CheckBook book;
  long steps = 0;  ///< timed steps taken
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> info;
};

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peakRssMb();
/// Phase-space degrees of freedom of every species on the global grid.
[[nodiscard]] double totalDofs(const vdg::Simulation& sim);
/// (eps0/2) int |E|^2 dx of the em slot of a (global) state.
[[nodiscard]] double electricEnergy(const vdg::StateVector& s, const vdg::Basis& confBasis,
                                    double eps0);
/// The checks on the state a run ends with (one round from the initial
/// state): per-species mass against the reference, the L2 norm of every
/// collisionless species, collision moment conservation, the Gauss-law
/// energy and Krylov residuals, and the rank-parallel run's bitwise
/// identity with a serial replay.
void finalChecks(Run& run, const Workload& w, const Reference& ref, CheckBook& book);

}  // namespace perfbench
