#pragma once
// Conservative Lenard-Bernstein/Dougherty collision operator (the paper's
// reference [22]; Juno et al. 2017 give the DG formulation reproduced here):
//
//   C[f] = nu d/dv_j ( (v_j - u_j) f + vth^2 df/dv_j )
//
// with primitive moments (u, vth^2) obtained from the discrete moments of f
// by weak division in the configuration basis (dg/moments.hpp,
// PrimitiveMoments). The discretization stays alias-free / matrix-free /
// quadrature-free:
//
//  - The drag term is the Vlasov acceleration machinery with the velocity-
//    space "acceleration" alpha_j = u_j - v_j: exact sparse volume tapes
//    plus penalty-flux surface lifts at interior velocity faces.
//  - The diffusion term uses the recovery-based DG treatment: across every
//    interior velocity face the two neighboring 1-D slices are merged into
//    the unique degree-(2p+1) recovery polynomial reproducing both cells'
//    moments, whose interface value and derivative feed the twice-
//    integrated-by-parts weak form (value + flux surface terms plus the
//    second-derivative volume tape of tensors/dg_tensors.hpp).
//  - Velocity-domain boundaries are zero-flux: drag and diffusion fluxes
//    are dropped there, so the density M0 is conserved by construction
//    (surface fluxes telescope over interior faces).
//  - A final per-configuration-cell correction solves a tiny (2 + vdim)
//    moment system and subtracts a combination of the exactly-projected
//    weight fields {f, v_j f, |v|^2 f} from the increment, so M0, M1 and
//    M2 are conserved to machine precision per step (the momentum/energy
//    errors of the raw discrete operator are O(h^{p+1}); the correction
//    removes them entirely).
//
// Per-cell loops are chunked over configuration cells through ThreadExec
// (velocity faces never straddle configuration cells, so one chunk owns
// every term of its cells) and are bit-for-bit serial-identical, like BGK.

#include <algorithm>
#include <memory>
#include <vector>

#include "dg/moments.hpp"
#include "grid/grid.hpp"
#include "kernels/registry.hpp"
#include "tensors/vlasov_tensors.hpp"

namespace vdg {

class ThreadExec;

struct LboParams {
  /// Species mass. The operator itself acts on vth^2 = T/m directly (its
  /// moments are mass-independent); mass converts between the two where a
  /// temperature is needed — LboUpdater::temperature() returns T = m vth^2.
  /// Simulation::Builder overwrites it with the species mass.
  double mass = 1.0;
  double collisionFreq = 1.0;  ///< nu
  /// Apply the exact per-cell M0/M1/M2 conservation correction. On by
  /// default; tests disable it to measure the raw operator's errors.
  bool momentFix = true;
};

class LboUpdater {
 public:
  LboUpdater(const BasisSpec& spec, const Grid& phaseGrid, const LboParams& params);

  /// rhs += nu d/dv.((v-u)f + vth^2 df/dv) with (u, vth^2) from the weak
  /// division of f's moments. Returns the stiffness frequency
  /// max_cells sum_j nu (|u - v|_max / dv_j + vth^2_max (2p+1) / dv_j^2).
  double advance(const Field& f, Field& rhs) const;

  /// Weak-division primitive moments of f: u (vdim*numConfModes comps) and
  /// vth^2 (numConfModes comps) on the configuration grid.
  void primitiveMoments(const Field& f, Field& u, Field& vtSq) const;

  /// Temperature T = mass * vth^2 (numConfModes comps) — where the species
  /// mass enters the collision layer.
  void temperature(const Field& f, Field& T) const;

  /// Raw operator pieces, accumulated into rhs WITHOUT the collision
  /// frequency and WITHOUT the conservation correction (tests, convergence
  /// studies). `u` / `vtSq` are configuration fields as produced by
  /// primitiveMoments (any prescribed coefficient field works).
  void dragTerm(const Field& f, const Field& u, Field& rhs) const;
  void diffusionTerm(const Field& f, const Field& vtSq, Field& rhs) const;

  [[nodiscard]] const LboParams& params() const { return params_; }
  [[nodiscard]] Grid confGrid() const { return mom_->confGrid(); }
  [[nodiscard]] int numConfModes() const { return npc_; }

  /// Pool driving the per-configuration-cell loops (defaults to
  /// ThreadExec::global(); nullptr forces serial execution). Chunks own
  /// disjoint configuration cells — and with them every velocity face of
  /// those cells — so threading is bit-for-bit serial-identical. Shared
  /// with the weak-division loop of the primitive moments.
  void setExecutor(ThreadExec* exec) {
    exec_ = exec;
    prim_->setExecutor(exec);
  }

  /// Lane count for the per-velocity-cell volume loops (drag +
  /// diffusion), executed through the blocked tape executors of
  /// dg/batch.hpp: 0 = auto (largest kKernelBatchLanes entry, the
  /// default) or a kKernelBatchLanes entry; other requests fall back to 1.
  /// Bitwise identical at every width — the knob exists for A/B
  /// benchmarking and bisection.
  void setBatchLanes(int lanes) { batchLanes_ = lanes; }

  /// The lane count apply() actually blocks the volume loops with.
  [[nodiscard]] int activeBatchLanes() const {
    if (batchLanes_ == 0) return kKernelBatchLanes[kNumKernelBatchLanes - 1];
    for (const int b : kKernelBatchLanes)
      if (b == batchLanes_) return b;
    return 1;
  }

 private:
  double apply(const Field& f, const Field& u, const Field& vtSq, Field& rhs, bool drag,
               bool diff, bool correct, double scale) const;

  const VlasovKernelSet* ks_;
  ThreadExec* exec_ = nullptr;
  Grid grid_;
  LboParams params_;
  int cdim_, vdim_, np_, npc_, polyOrder_;
  std::unique_ptr<MomentUpdater> mom_;
  std::unique_ptr<PrimitiveMoments> prim_;

  std::vector<Tape3> diffVol_;   ///< per vel dim: int d2w_l/deta^2 w_m w_n
  std::vector<Tape2> eta2Mul_;   ///< per vel dim: projection of eta^2 g

  /// psi'_{a_d}(-1) / psi'_{a_d}(+1) per volume mode, per velocity dim —
  /// the derivative lifts of the recovery value surface term.
  std::vector<std::vector<double>> derivMinus_, derivPlus_;

  /// Volume mode of 1-D slice degree m on face mode k (index k*(p+1)+m),
  /// -1 where the family drops the mode; per velocity dim.
  std::vector<std::vector<int>> sliceMode_;

  /// Recovery functionals: interface value r(0) and derivative r'(0) (in
  /// the two-cell coordinate) as linear maps of the left/right 1-D slice
  /// coefficients g_m, m = 0..p (tensors/dg_tensors.hpp, shared with the
  /// Poisson solver).
  RecoveryWeights rec_;

  /// Scalar (conf-mode-0) moment tape weights over one velocity cell, for
  /// the conservation correction: weight 1, eta_j, eta_j^2.
  struct ScalarTape {
    struct Term {
      int l;
      double c;
    };
    std::vector<Term> terms;
  };
  ScalarTape sm0_;
  std::vector<ScalarTape> sm1_, sm2_;

  std::vector<double> confSup_;  ///< sup |w_k| per conf mode (CFL bound)
  double jacV_ = 1.0;            ///< velocity-cell Jacobian prod dv_j/2
  int batchLanes_ = 0;           ///< requested SIMD batch width (0 = auto)
};

}  // namespace vdg
