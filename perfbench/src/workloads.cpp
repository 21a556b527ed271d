#include "workloads.hpp"

#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace perfbench {

using namespace vdg;

namespace {

constexpr double kPi = std::numbers::pi;

/// Deterministic generator (splitmix64): the same seed gives the same
/// inputs on every standard library, unlike std::uniform_real_distribution.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

double maxwellian3(double vx, double vy, double vz, double ux, double vt) {
  const double d = vx - ux;
  const double vt2 = vt * vt;
  return std::exp(-0.5 * (d * d + vy * vy + vz * vz) / vt2) /
         std::pow(2.0 * kPi * vt2, 1.5);
}

/// The collisionless 2x3v p2 Vlasov-Maxwell scenario: a Langmuir
/// perturbation along x and along y over a neutralizing background, with
/// the initial E solving Gauss's law.
Simulation::Builder langmuir2x3v(Rng& rng, double& boxLength) {
  const double k = 0.5;
  const double L = 2.0 * kPi / k;
  const double ax = rng.uniform(0.05, 0.1), ay = rng.uniform(0.05, 0.1);
  const double px = rng.uniform(0.0, 2.0 * kPi), py = rng.uniform(0.0, 2.0 * kPi);
  boxLength = L;
  return Simulation::builder()
      .confGrid(Grid::make({4, 4}, {0.0, 0.0}, {L, L}))
      .basis(2, BasisFamily::Serendipity)
      .species("elc", -1.0, 1.0, Grid::make({6, 6, 6}, {-6.0, -6.0, -6.0}, {6.0, 6.0, 6.0}),
               [=](const double* z) {
                 const double n =
                     1.0 + ax * std::cos(k * z[0] + px) + ay * std::cos(k * z[1] + py);
                 return n * maxwellian3(z[2], z[3], z[4], 0.0, 1.0);
               })
      .field(MaxwellParams{})
      .initField([=](const double* z, double* out) {
        for (int c = 0; c < kEmComps; ++c) out[c] = 0.0;
        out[0] = -(ax / k) * std::sin(k * z[0] + px);
        out[1] = -(ay / k) * std::sin(k * z[1] + py);
      })
      .backgroundCharge(1.0)
      .stepper(Stepper::SspRk3);
}

/// Two species on the 2x3v p2 phase space: electrons as two counter-
/// streaming beams of unequal weight (far from Maxwellian, so the LBO drag
/// and diffusion do real work, and with a net drift, so momentum
/// conservation is not trivially zero by symmetry) and a heavier species
/// with an anisotropic temperature under BGK relaxation. Only the electrons
/// carry the density perturbation, so E starts from the electron Gauss-law
/// field. The beam drift is fixed: the electron temperature it sets drives
/// the LBO diffusion's CFL limit, and with a seeded drift the time step, and
/// so the work per unit of simulated time, moved by ~10% between seeds.
Simulation::Builder collisional2x3v(Rng& rng, double& boxLength) {
  const double k = 0.5;
  const double L = 2.0 * kPi / k;
  const double ax = rng.uniform(0.05, 0.1);
  const double px = rng.uniform(0.0, 2.0 * kPi);
  const double ub = 1.25;                    // beam drift
  const double wb = rng.uniform(0.55, 0.7);  // weight of the +ub beam
  const double tx = rng.uniform(1.5, 2.0);   // ion x-temperature ratio
  boxLength = L;
  return Simulation::builder()
      .confGrid(Grid::make({2, 2}, {0.0, 0.0}, {L, L}))
      .basis(2, BasisFamily::Serendipity)
      .species("elc", -1.0, 1.0, Grid::make({6, 6, 6}, {-6.0, -6.0, -6.0}, {6.0, 6.0, 6.0}),
               [=](const double* z) {
                 const double n = 1.0 + ax * std::cos(k * z[0] + px);
                 return n * (wb * maxwellian3(z[2], z[3], z[4], ub, 0.7) +
                             (1.0 - wb) * maxwellian3(z[2], z[3], z[4], -ub, 0.7));
               })
      .collisions(LboParams{.mass = 1.0, .collisionFreq = 0.2, .momentFix = true})
      .species("ion", 1.0, 4.0, Grid::make({6, 6, 6}, {-3.0, -3.0, -3.0}, {3.0, 3.0, 3.0}),
               [=](const double* z) {
                 const double vt = 0.5, vtx = vt * std::sqrt(tx);
                 return std::exp(-0.5 * (z[2] * z[2] / (vtx * vtx) +
                                          (z[3] * z[3] + z[4] * z[4]) / (vt * vt))) /
                        (std::pow(2.0 * kPi, 1.5) * vtx * vt * vt);
               })
      .collisions(BgkParams{.mass = 4.0, .collisionFreq = 0.5})
      .field(MaxwellParams{})
      .initField([=](const double* z, double* out) {
        for (int c = 0; c < kEmComps; ++c) out[c] = 0.0;
        out[0] = -(ax / k) * std::sin(k * z[0] + px);
      })
      .stepper(Stepper::SspRk3);
}

/// Electrostatic 2x2v p2 on a configuration-heavy grid: a broadband
/// density perturbation of every wave vector with |nx|, |ny| <= 3 in one
/// half-plane (24 modes), seeded amplitudes and phases. The broad
/// spectrum is what makes the Krylov Poisson solve expensive.
Simulation::Builder broadband2x2v(Rng& rng, double& boxLength, std::vector<DensityMode>& modes) {
  const double L = 4.0 * kPi;
  boxLength = L;
  modes.clear();
  for (int nx = 0; nx <= 3; ++nx)
    for (int ny = -3; ny <= 3; ++ny) {
      if (nx == 0 && ny <= 0) continue;
      modes.push_back({nx, ny, rng.uniform(1e-3, 2e-3), rng.uniform(0.0, 2.0 * kPi)});
    }
  // Per mode: amp cos(phase), amp sin(phase), so that
  // amp cos(nx X + ny Y + phase) = ac cos(nx X + ny Y) - as sin(nx X + ny Y)
  // with the harmonics of X = kf x and Y = kf y built from one cos/sin pair
  // each: the initial condition is evaluated at every quadrature point of
  // the projection, and 24 transcendental calls there would dominate the
  // set-up the benchmark measures.
  struct Coef {
    int nx, ny;
    double ac, as;
  };
  std::vector<Coef> cs;
  for (const DensityMode& m : modes)
    cs.push_back({m.nx, m.ny, m.amp * std::cos(m.phase), m.amp * std::sin(m.phase)});
  const double kf = 2.0 * kPi / L;
  return Simulation::builder()
      .confGrid(Grid::make({32, 32}, {0.0, 0.0}, {L, L}))
      .basis(2, BasisFamily::Serendipity)
      .species("elc", -1.0, 1.0, Grid::make({4, 4}, {-6.0, -6.0}, {6.0, 6.0}),
               [=](const double* z) {
                 std::array<double, 4> cx{1.0, std::cos(kf * z[0])}, sx{0.0, std::sin(kf * z[0])};
                 std::array<double, 7> cy{}, sy{};  // harmonic ny at index ny + 3
                 cy[3] = 1.0;
                 cy[4] = std::cos(kf * z[1]);
                 sy[4] = std::sin(kf * z[1]);
                 for (int h = 2; h <= 3; ++h) {
                   cx[h] = cx[h - 1] * cx[1] - sx[h - 1] * sx[1];
                   sx[h] = sx[h - 1] * cx[1] + cx[h - 1] * sx[1];
                   cy[3 + h] = cy[2 + h] * cy[4] - sy[2 + h] * sy[4];
                   sy[3 + h] = sy[2 + h] * cy[4] + cy[2 + h] * sy[4];
                 }
                 for (int h = 1; h <= 3; ++h) {
                   cy[3 - h] = cy[3 + h];
                   sy[3 - h] = -sy[3 + h];
                 }
                 double n = 1.0;
                 for (const Coef& c : cs) {
                   const double ca = cx[c.nx], sa = sx[c.nx];
                   const double cb = cy[c.ny + 3], sb = sy[c.ny + 3];
                   n += c.ac * (ca * cb - sa * sb) - c.as * (sa * cb + ca * sb);
                 }
                 return n * std::exp(-0.5 * (z[2] * z[2] + z[3] * z[3])) / (2.0 * kPi);
               })
      .field(PoissonParams{})
      .backgroundCharge(1.0)
      .stepper(Stepper::SspRk3);
}

}  // namespace

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  Rng rng(seed);
  if (name == "vm2x3v_p2") {
    w.builder = langmuir2x3v(rng, w.boxLength);
    w.parReplica = true;
  } else if (name == "coll2x3v_p2") {
    w.builder = collisional2x3v(rng, w.boxLength);
    w.poissonReplica = true;
  } else if (name == kPoissonScenario) {
    w.builder = broadband2x2v(rng, w.boxLength, w.modes);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // Isolation from the caller's environment: an explicit thread count, the
  // automatic SIMD batch width, and instrumentation explicitly off (which
  // overrides VDG_TRACE / VDG_PROFILE).
  w.builder.threads(kThreads).batchLanes(0).profiling(ProfilingSpec{});
  return w;
}

double gaussLawEnergy(const std::vector<DensityMode>& modes, double boxLength) {
  const double kf = 2.0 * kPi / boxLength;
  double e = 0.0;
  for (const DensityMode& m : modes) {
    const double k2 = kf * kf * (m.nx * m.nx + m.ny * m.ny);
    e += m.amp * m.amp * boxLength * boxLength / (4.0 * k2);
  }
  return e;
}

}  // namespace perfbench
