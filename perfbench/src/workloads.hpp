#pragma once
// The benchmark's scenarios: two timed workloads and the electrostatic
// scenario that the collisional workload's traced run replicates. Every
// input is generated here from the workload seed; the solver only ever sees
// the resulting builder.

#include <cstdint>
#include <string>
#include <vector>

#include "app/simulation.hpp"

namespace perfbench {

/// One Fourier mode of a seeded density perturbation:
/// amp * cos(2 pi (nx x + ny y) / L + phase).
struct DensityMode {
  int nx = 0, ny = 0;
  double amp = 0.0, phase = 0.0;
};

/// RHS threads of every workload process (a rank-parallel run gives each
/// rank one thread): Eop is a per-core figure.
inline constexpr int kThreads = 1;
/// Ranks of the traced replica that reports the rank-parallel layer.
inline constexpr int kParRanks = 2;
/// The electrostatic scenario (32^2 x 4^2 cells, seeded broadband density)
/// behind the dg/poisson layer. It is not a timed workload of its own: its
/// step time moved too much from run to run on a shared host.
inline constexpr const char* kPoissonScenario = "vp2x2v_p2";

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  int ranks = 1;  ///< > 1: a DistributedSimulation over the in-process transport
  /// The traced run also times the scenario on kParRanks ranks, to report
  /// the rank-parallel layer.
  bool parReplica = false;
  /// The traced run also times kPoissonScenario on the same seed, the
  /// scenario where the Poisson solve does work, to report the dg/poisson
  /// layer and run that scenario's checks.
  bool poissonReplica = false;
  /// Fully configured inputs; profiling is switched off explicitly here and
  /// switched on only by the traced run.
  vdg::Simulation::Builder builder;
  double boxLength = 0.0;            ///< edge of the square configuration domain
  std::vector<DensityMode> modes;    ///< vp2x2v_p2: the seeded mode set
};

/// The workload's inputs from its seed. Throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] Workload makeWorkload(const std::string& name, std::uint64_t seed);

/// (eps0/2) int |E|^2 dx of the Gauss-law field of an electron density
/// 1 + sum_m amp_m cos(k_m . x + phase_m) over a neutralizing background on
/// the periodic square [0, L)^2, eps0 = 1. The modes must be distinct and
/// lie in one half-plane, so their fields are mutually orthogonal:
///   E = -sum_m amp_m k_m / |k_m|^2 sin(k_m . x + phase_m),
///   (1/2) int |E|^2 = sum_m amp_m^2 L^2 / (4 |k_m|^2).
[[nodiscard]] double gaussLawEnergy(const std::vector<DensityMode>& modes, double boxLength);

}  // namespace perfbench
