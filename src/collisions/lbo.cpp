#include "collisions/lbo.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "dg/batch.hpp"
#include "math/dense_matrix.hpp"
#include "math/gauss_legendre.hpp"
#include "math/legendre.hpp"
#include "par/thread_exec.hpp"
#include "tensors/dg_tensors.hpp"

namespace vdg {

namespace {

template <typename Fn>
void forEachIdx(int nd, const int* hi, Fn fn) {
  forEachIndexInRange(nd, hi, 0, boxSize(nd, hi), fn);
}

/// Upper bound on the supported lane counts (sizes per-lane scratch).
constexpr int kMaxLanes = kKernelBatchLanes[kNumKernelBatchLanes - 1];

}  // namespace

LboUpdater::LboUpdater(const BasisSpec& spec, const Grid& phaseGrid, const LboParams& params)
    : ks_(&vlasovKernels(spec)), exec_(&ThreadExec::global()), grid_(phaseGrid), params_(params),
      cdim_(spec.cdim), vdim_(spec.vdim), np_(ks_->numPhaseModes), npc_(ks_->numConfModes),
      polyOrder_(spec.polyOrder), mom_(std::make_unique<MomentUpdater>(spec, phaseGrid)),
      prim_(std::make_unique<PrimitiveMoments>(spec.configSpec(), spec.vdim)) {
  if (phaseGrid.ndim != spec.ndim())
    throw std::invalid_argument("LboUpdater: grid/basis dimensionality mismatch");
  const Basis& phase = *ks_->phase;
  const auto& tab = LegendreTables::instance();
  const int p = polyOrder_;

  for (int j = 0; j < vdim_; ++j) {
    const int d = cdim_ + j;
    diffVol_.push_back(buildVolumeTape2(phase, d));
    eta2Mul_.push_back(buildEta2MulTape(phase, d));

    std::vector<double> dm(static_cast<std::size_t>(np_)), dp(static_cast<std::size_t>(np_));
    const FaceMap& fm = ks_->faceMap[static_cast<std::size_t>(d)];
    std::vector<int> slice(static_cast<std::size_t>(fm.numFaceModes) * (p + 1), -1);
    for (int l = 0; l < np_; ++l) {
      const int a = phase.mode(l)[d];
      dm[static_cast<std::size_t>(l)] = legendrePsiDeriv(a, -1.0);
      dp[static_cast<std::size_t>(l)] = legendrePsiDeriv(a, +1.0);
      slice[static_cast<std::size_t>(fm.entries[static_cast<std::size_t>(l)].face) *
                static_cast<std::size_t>(p + 1) +
            static_cast<std::size_t>(a)] = l;
    }
    derivMinus_.push_back(std::move(dm));
    derivPlus_.push_back(std::move(dp));
    sliceMode_.push_back(std::move(slice));
  }

  // --- recovery functionals of the two-cell patch (shared with the Poisson
  // solver's interface traces; see tensors/dg_tensors.hpp).
  rec_ = buildRecoveryWeights(p);

  // --- scalar (conf-mode-0) moment tapes for the conservation correction.
  sm1_.resize(static_cast<std::size_t>(vdim_));
  sm2_.resize(static_cast<std::size_t>(vdim_));
  for (int l = 0; l < np_; ++l) {
    const MultiIndex& a = phase.mode(l);
    bool confFlat = true;
    for (int d = 0; d < cdim_; ++d)
      if (a[d] != 0) confFlat = false;
    if (!confFlat) continue;
    const auto weight = [&](int jmom, int power) {
      double w = 1.0;
      for (int j = 0; j < vdim_; ++j) w *= tab.xmom(a[cdim_ + j], j == jmom ? power : 0);
      return w;
    };
    const double w0 = weight(-1, 0);
    if (std::abs(w0) > 1e-14) sm0_.terms.push_back({l, w0});
    for (int j = 0; j < vdim_; ++j) {
      const double w1 = weight(j, 1);
      if (std::abs(w1) > 1e-14) sm1_[static_cast<std::size_t>(j)].terms.push_back({l, w1});
      const double w2 = weight(j, 2);
      if (std::abs(w2) > 1e-14) sm2_[static_cast<std::size_t>(j)].terms.push_back({l, w2});
    }
  }

  confSup_ = basisSupBounds(*ks_->conf);
  jacV_ = 1.0;
  for (int j = 0; j < vdim_; ++j) jacV_ *= 0.5 * grid_.dx(cdim_ + j);
}

void LboUpdater::primitiveMoments(const Field& f, Field& u, Field& vtSq) const {
  const Grid cg = mom_->confGrid();
  Field m0(cg, npc_), m1(cg, 3 * npc_), m2(cg, npc_);
  mom_->compute(f, &m0, &m1, &m2);
  prim_->compute(m0, m1, m2, u, vtSq);
}

void LboUpdater::temperature(const Field& f, Field& T) const {
  const Grid cg = mom_->confGrid();
  Field u(cg, vdim_ * npc_);
  primitiveMoments(f, u, T);
  T.scale(params_.mass);
}

double LboUpdater::advance(const Field& f, Field& rhs) const {
  const Grid cg = mom_->confGrid();
  Field u(cg, vdim_ * npc_), vtSq(cg, npc_);
  primitiveMoments(f, u, vtSq);
  return apply(f, u, vtSq, rhs, true, true, params_.momentFix, params_.collisionFreq);
}

void LboUpdater::dragTerm(const Field& f, const Field& u, Field& rhs) const {
  apply(f, u, u, rhs, true, false, false, 1.0);
}

void LboUpdater::diffusionTerm(const Field& f, const Field& vtSq, Field& rhs) const {
  apply(f, vtSq, vtSq, rhs, false, true, false, 1.0);
}

double LboUpdater::apply(const Field& f, const Field& u, const Field& vtSq, Field& rhs,
                         bool drag, bool diff, bool correct, double scale) const {
  const VlasovKernelSet& ks = *ks_;
  const int np = np_;
  const int p1 = polyOrder_ + 1;
  assert(f.ncomp() == np && rhs.ncomp() == np);

  int confHi[kMaxDim], velHi[kMaxDim];
  for (int d = 0; d < cdim_; ++d) confHi[d] = grid_.cells[static_cast<std::size_t>(d)];
  for (int j = 0; j < vdim_; ++j) velHi[j] = grid_.cells[static_cast<std::size_t>(cdim_ + j)];
  const std::size_t nvel = boxSize(vdim_, velHi);
  std::array<std::size_t, kMaxDim> vstride{};
  vstride[0] = 1;
  for (int j = 1; j < vdim_; ++j)
    vstride[static_cast<std::size_t>(j)] =
        vstride[static_cast<std::size_t>(j - 1)] * static_cast<std::size_t>(velHi[j - 1]);
  std::array<double, kMaxDim> dxv{}, rdx2{};
  for (int j = 0; j < vdim_; ++j) {
    dxv[static_cast<std::size_t>(j)] = grid_.dx(cdim_ + j);
    rdx2[static_cast<std::size_t>(j)] = 2.0 / dxv[static_cast<std::size_t>(j)];
  }
  int nfMax = 0;
  for (int j = 0; j < vdim_; ++j)
    nfMax = std::max(nfMax, ks.faceMap[static_cast<std::size_t>(cdim_ + j)].numFaceModes);
  const int ns = 2 + vdim_;  // conservation-correction system size

  double maxFreq = 0.0;
  std::mutex freqMutex;

  chunkedFor(exec_, boxSize(cdim_, confHi), [&](std::size_t begin, std::size_t end) {
    // Per-chunk scratch: the increment of one configuration cell's whole
    // velocity box, the per-cell drag expansion, and face workspaces.
    std::vector<double> inc(nvel * static_cast<std::size_t>(np));
    std::vector<double> alphaBuf(drag ? nvel * static_cast<std::size_t>(vdim_ * np) : 0);
    std::vector<double> uPhase(static_cast<std::size_t>(vdim_ * np)),
        dPhase(static_cast<std::size_t>(np));
    std::vector<double> dFace(static_cast<std::size_t>(vdim_ * nfMax));
    const auto nfm = static_cast<std::size_t>(nfMax);
    std::vector<double> fLf(nfm), fRf(nfm), aLf(nfm), aRf(nfm), fhat(nfm), rv(nfm), rd(nfm),
        prod(nfm);
    // Correction weight fields {etaMul_j f, P(|v|^2 f)} per velocity cell,
    // built once while assembling the moment system and reused when the
    // solved correction is applied (layout per cell: vdim em slices, then
    // g2). e2 is a transient eta^2-product slot.
    std::vector<double> wBuf(correct ? nvel * static_cast<std::size_t>((vdim_ + 1) * np) : 0);
    std::vector<double> e2(static_cast<std::size_t>(np));
    // Volume-loop scratch: AoSoA blocks of B velocity cells run through
    // the blocked tape executors of dg/batch.hpp (bitwise identical per
    // cell at every width, see batch.hpp). The cells left over when
    // nvel % B != 0 run as one narrower block.
    const int B = activeBatchLanes();
    const auto blk = static_cast<std::size_t>(np) * static_cast<std::size_t>(B);
    BatchBuffer fBlk(blk), incBlk(blk), ajBlk(drag ? blk : 0);
    std::array<MultiIndex, kMaxLanes> laneIdx;
    std::array<std::size_t, kMaxLanes> laneLin{};
    std::array<const double*, kMaxLanes> lanePtr{};
    std::array<double*, kMaxLanes> laneOut{};
    double chunkFreq = 0.0;

    forEachIndexInRange(cdim_, confHi, begin, end, [&](const MultiIndex& ci) {
      std::fill(inc.begin(), inc.end(), 0.0);
      double freq = 0.0;
      double vtMax = 0.0;

      // Embed the configuration-space u and vth^2 expansions into the
      // phase basis (shared by every velocity cell of this conf cell).
      if (drag) {
        std::fill(uPhase.begin(), uPhase.end(), 0.0);
        const double* uc = u.at(ci);
        for (int j = 0; j < vdim_; ++j)
          for (int k = 0; k < npc_; ++k)
            uPhase[static_cast<std::size_t>(j) * np +
                   static_cast<std::size_t>(ks.embedIdx[static_cast<std::size_t>(k)])] =
                ks.embedFac * uc[j * npc_ + k];
      }
      if (diff) {
        std::fill(dPhase.begin(), dPhase.end(), 0.0);
        const double* dc = vtSq.at(ci);
        for (int k = 0; k < npc_; ++k) {
          dPhase[static_cast<std::size_t>(ks.embedIdx[static_cast<std::size_t>(k)])] =
              ks.embedFac * dc[k];
          vtMax += std::abs(dc[k]) * confSup_[static_cast<std::size_t>(k)];
        }
        // Face restriction of the (velocity-independent) coefficient is
        // the same on both sides of every velocity face of this cell.
        for (int j = 0; j < vdim_; ++j) {
          const FaceMap& fm = ks.faceMap[static_cast<std::size_t>(cdim_ + j)];
          fm.restrictTo(dPhase,
                        {dFace.data() + static_cast<std::size_t>(j) * nfm,
                         static_cast<std::size_t>(fm.numFaceModes)},
                        +1);
        }
        for (int j = 0; j < vdim_; ++j)
          freq += vtMax * (2.0 * polyOrder_ + 1.0) /
                  (dxv[static_cast<std::size_t>(j)] * dxv[static_cast<std::size_t>(j)]);
      }

      // ------------------------------------------------------- volume
      double dragFreq = 0.0;  // max over velocity cells of sum_j |alpha|/dv_j

      // Per-lane drag expansion build: fills the cell's alphaBuf slot —
      // the surface sweep reads it later — and returns the cell's CFL
      // frequency contribution.
      const auto buildDragAlpha = [&](const MultiIndex& idx, std::size_t vlin) {
        double* al = alphaBuf.data() + vlin * static_cast<std::size_t>(vdim_ * np);
        double cellFreq = 0.0;
        for (int j = 0; j < vdim_; ++j) {
          const int d = cdim_ + j;
          const double wc = grid_.cellCenter(d, idx[d]);
          const double hdv = 0.5 * dxv[static_cast<std::size_t>(j)];
          double* aj = al + static_cast<std::size_t>(j) * np;
          const double* uj = uPhase.data() + static_cast<std::size_t>(j) * np;
          for (int l = 0; l < np; ++l) aj[l] = uj[l];
          for (const auto& [l, c] : ks.unitProj) aj[l] -= wc * c;
          for (const auto& [l, c] : ks.etaProj[static_cast<std::size_t>(d)]) aj[l] -= hdv * c;
          double amax = 0.0;
          for (int l = 0; l < np; ++l)
            amax += std::abs(aj[l]) * ks.phaseSup[static_cast<std::size_t>(l)];
          cellFreq += amax / dxv[static_cast<std::size_t>(j)];
        }
        return cellFreq;
      };

      // Volume update of the n velocity cells laneIdx/laneLin[0..n), n <= B:
      // the tape terms in the same per-lane order, run as AoSoA lane loops.
      const auto volBlock = [&](int n) {
        for (int b = 0; b < n; ++b)
          lanePtr[static_cast<std::size_t>(b)] = f.at(laneIdx[static_cast<std::size_t>(b)]);
        packLanes(n, np, lanePtr.data(), fBlk.data());
        zeroLanes(n, np, incBlk.data());
        if (drag) {
          for (int b = 0; b < n; ++b)
            dragFreq = std::max(dragFreq, buildDragAlpha(laneIdx[static_cast<std::size_t>(b)],
                                                         laneLin[static_cast<std::size_t>(b)]));
          for (int j = 0; j < vdim_; ++j) {
            for (int b = 0; b < n; ++b)
              lanePtr[static_cast<std::size_t>(b)] =
                  alphaBuf.data() +
                  laneLin[static_cast<std::size_t>(b)] * static_cast<std::size_t>(vdim_ * np) +
                  static_cast<std::size_t>(j) * np;
            packLanes(n, np, lanePtr.data(), ajBlk.data());
            executeBatched(ks.volume[static_cast<std::size_t>(cdim_ + j)], n, ajBlk.data(),
                           fBlk.data(), incBlk.data(), rdx2[static_cast<std::size_t>(j)]);
          }
        }
        if (diff) {
          for (int j = 0; j < vdim_; ++j)
            executeBatchedSharedA(diffVol_[static_cast<std::size_t>(j)], n, dPhase.data(),
                                  fBlk.data(), incBlk.data(),
                                  rdx2[static_cast<std::size_t>(j)] *
                                      rdx2[static_cast<std::size_t>(j)]);
        }
        // Volume is the first contribution to each inc slot (inc was just
        // zero-filled), so the block scatter overwrites.
        for (int b = 0; b < n; ++b)
          laneOut[static_cast<std::size_t>(b)] =
              inc.data() + laneLin[static_cast<std::size_t>(b)] * static_cast<std::size_t>(np);
        scatterLanes(n, np, incBlk.data(), laneOut.data());
      };

      std::size_t vlin = 0;
      int lane = 0;
      forEachIdx(vdim_, velHi, [&](const MultiIndex& vi) {
        MultiIndex& idx = laneIdx[static_cast<std::size_t>(lane)];
        idx = ci;
        for (int j = 0; j < vdim_; ++j) idx[cdim_ + j] = vi[j];
        laneLin[static_cast<std::size_t>(lane)] = vlin++;
        if (++lane == B) {
          volBlock(B);
          lane = 0;
        }
      });
      if (lane > 0) volBlock(lane);
      freq += dragFreq;

      // ------------------------------------------------------ surface
      for (int j = 0; j < vdim_; ++j) {
        const int d = cdim_ + j;
        const FaceMap& fm = ks.faceMap[static_cast<std::size_t>(d)];
        const int nf = fm.numFaceModes;
        const double r2 = rdx2[static_cast<std::size_t>(j)];
        const double s2 = r2 * r2;
        const double* dF = dFace.data() + static_cast<std::size_t>(j) * nfm;
        const std::span<const double> dFs(dF, static_cast<std::size_t>(nf));
        const std::vector<double>& dMin = derivMinus_[static_cast<std::size_t>(j)];
        const std::vector<double>& dPlu = derivPlus_[static_cast<std::size_t>(j)];
        const std::vector<int>& slice = sliceMode_[static_cast<std::size_t>(j)];

        int tHi[kMaxDim];
        int nt = 0;
        for (int jj = 0; jj < vdim_; ++jj)
          if (jj != j) tHi[nt++] = velHi[jj];

        forEachIdx(nt, tHi, [&](const MultiIndex& ti) {
          MultiIndex vi;
          int jt = 0;
          for (int jj = 0; jj < vdim_; ++jj)
            if (jj != j) vi[jj] = ti[jt++];

          const auto cellAt = [&](int i) {
            MultiIndex v = vi;
            v[j] = i;
            std::size_t lin = 0;
            for (int jj = 0; jj < vdim_; ++jj)
              lin += static_cast<std::size_t>(v[jj]) * vstride[static_cast<std::size_t>(jj)];
            MultiIndex idx = ci;
            for (int jj = 0; jj < vdim_; ++jj) idx[cdim_ + jj] = v[jj];
            return std::pair<std::size_t, MultiIndex>{lin, idx};
          };

          // Interior faces: zero-flux closure skips the domain boundaries.
          for (int i = 1; i < velHi[j]; ++i) {
            const auto [linL, idxL] = cellAt(i - 1);
            const auto [linR, idxR] = cellAt(i);
            const double* fLc = f.at(idxL);
            const double* fRc = f.at(idxR);
            const std::span<double> incL(inc.data() + linL * static_cast<std::size_t>(np),
                                         static_cast<std::size_t>(np));
            const std::span<double> incR(inc.data() + linR * static_cast<std::size_t>(np),
                                         static_cast<std::size_t>(np));

            if (drag) {
              const std::span<const double> fLs(fLc, static_cast<std::size_t>(np));
              const std::span<const double> fRs(fRc, static_cast<std::size_t>(np));
              fm.restrictTo(fLs, fLf, +1);
              fm.restrictTo(fRs, fRf, -1);
              const double* aL =
                  alphaBuf.data() + linL * static_cast<std::size_t>(vdim_ * np) +
                  static_cast<std::size_t>(j) * np;
              const double* aR =
                  alphaBuf.data() + linR * static_cast<std::size_t>(vdim_ * np) +
                  static_cast<std::size_t>(j) * np;
              fm.restrictTo({aL, static_cast<std::size_t>(np)}, aLf, +1);
              fm.restrictTo({aR, static_cast<std::size_t>(np)}, aRf, -1);
              for (int k = 0; k < nf; ++k) fhat[static_cast<std::size_t>(k)] = 0.0;
              ks.faceProduct[static_cast<std::size_t>(d)].execute(aLf, fLf, fhat, 0.5);
              ks.faceProduct[static_cast<std::size_t>(d)].execute(aRf, fRf, fhat, 0.5);
              const std::vector<double>& sup = ks.faceSup[static_cast<std::size_t>(d)];
              double bL = 0.0, bR = 0.0;
              for (int k = 0; k < nf; ++k) {
                bL += std::abs(aLf[static_cast<std::size_t>(k)]) *
                      sup[static_cast<std::size_t>(k)];
                bR += std::abs(aRf[static_cast<std::size_t>(k)]) *
                      sup[static_cast<std::size_t>(k)];
              }
              const double tau = std::max(bL, bR);
              for (int k = 0; k < nf; ++k)
                fhat[static_cast<std::size_t>(k)] -=
                    0.5 * tau *
                    (fRf[static_cast<std::size_t>(k)] - fLf[static_cast<std::size_t>(k)]);
              fm.lift(fhat, incL, +1, -r2);
              fm.lift(fhat, incR, -1, +r2);
            }

            if (diff) {
              // Recovery value / slope per transverse face mode.
              for (int k = 0; k < nf; ++k) {
                double v = 0.0, dv = 0.0;
                const int* sl = slice.data() + static_cast<std::size_t>(k) * p1;
                for (int m = 0; m < p1; ++m) {
                  const int lL = sl[m];
                  if (lL >= 0) {
                    v += rec_.valL[static_cast<std::size_t>(m)] * fLc[lL];
                    dv += rec_.derivL[static_cast<std::size_t>(m)] * fLc[lL];
                    v += rec_.valR[static_cast<std::size_t>(m)] * fRc[lL];
                    dv += rec_.derivR[static_cast<std::size_t>(m)] * fRc[lL];
                  }
                }
                rv[static_cast<std::size_t>(k)] = v;
                rd[static_cast<std::size_t>(k)] = dv;
              }
              // Flux term [w D df/deta] with df/deta = r'(0)/2.
              for (int k = 0; k < nf; ++k) prod[static_cast<std::size_t>(k)] = 0.0;
              ks.faceProduct[static_cast<std::size_t>(d)].execute(dFs, rd, prod, 1.0);
              fm.lift(prod, incL, +1, +0.5 * s2);
              fm.lift(prod, incR, -1, -0.5 * s2);
              // Value term -[dw/deta D fhat].
              for (int k = 0; k < nf; ++k) prod[static_cast<std::size_t>(k)] = 0.0;
              ks.faceProduct[static_cast<std::size_t>(d)].execute(dFs, rv, prod, 1.0);
              for (const FaceMap::Entry& e : fm.entries) {
                incL[static_cast<std::size_t>(e.vol)] -=
                    s2 * dPlu[static_cast<std::size_t>(e.vol)] *
                    prod[static_cast<std::size_t>(e.face)];
                incR[static_cast<std::size_t>(e.vol)] +=
                    s2 * dMin[static_cast<std::size_t>(e.vol)] *
                    prod[static_cast<std::size_t>(e.face)];
              }
            }
          }

          if (diff) {
            // Zero-flux domain boundaries: the flux term is dropped; the
            // value term uses the one-sided trace of the skin cell.
            const auto [lin0, idx0] = cellAt(0);
            fm.restrictTo(f.cell(idx0), fLf, -1);
            for (int k = 0; k < nf; ++k) prod[static_cast<std::size_t>(k)] = 0.0;
            ks.faceProduct[static_cast<std::size_t>(d)].execute(dFs, fLf, prod, 1.0);
            const std::span<double> inc0(inc.data() + lin0 * static_cast<std::size_t>(np),
                                         static_cast<std::size_t>(np));
            for (const FaceMap::Entry& e : fm.entries)
              inc0[static_cast<std::size_t>(e.vol)] +=
                  s2 * dMin[static_cast<std::size_t>(e.vol)] *
                  prod[static_cast<std::size_t>(e.face)];

            const auto [linN, idxN] = cellAt(velHi[j] - 1);
            fm.restrictTo(f.cell(idxN), fRf, +1);
            for (int k = 0; k < nf; ++k) prod[static_cast<std::size_t>(k)] = 0.0;
            ks.faceProduct[static_cast<std::size_t>(d)].execute(dFs, fRf, prod, 1.0);
            const std::span<double> incN(inc.data() + linN * static_cast<std::size_t>(np),
                                         static_cast<std::size_t>(np));
            for (const FaceMap::Entry& e : fm.entries)
              incN[static_cast<std::size_t>(e.vol)] -=
                  s2 * dPlu[static_cast<std::size_t>(e.vol)] *
                  prod[static_cast<std::size_t>(e.face)];
          }
        });
      }

      // --------------------------------------------------- correction
      // Solve the (2+vdim) moment system so the increment's density,
      // momentum and energy integrals over this conf cell vanish exactly,
      // subtracting a combination of the exactly-projected weight fields
      // {f, P(v_j f), P(|v|^2 f)}.
      if (correct) {
        const auto momentsOf = [&](const double* g, const double* wc, const double* hdv,
                                   double* out) {
          double s0 = 0.0;
          for (const ScalarTape::Term& t : sm0_.terms) s0 += t.c * g[t.l];
          out[0] += jacV_ * s0;
          double sE = 0.0;
          for (int jj = 0; jj < vdim_; ++jj) {
            double s1 = 0.0;
            for (const ScalarTape::Term& t : sm1_[static_cast<std::size_t>(jj)].terms)
              s1 += t.c * g[t.l];
            double sq = 0.0;
            for (const ScalarTape::Term& t : sm2_[static_cast<std::size_t>(jj)].terms)
              sq += t.c * g[t.l];
            out[1 + jj] += jacV_ * (wc[jj] * s0 + hdv[jj] * s1);
            sE += wc[jj] * wc[jj] * s0 + 2.0 * wc[jj] * hdv[jj] * s1 + hdv[jj] * hdv[jj] * sq;
          }
          out[1 + vdim_] += jacV_ * sE;
        };
        DenseMatrix A(ns, ns);
        std::array<double, 5> delta{};
        std::size_t lin = 0;
        forEachIdx(vdim_, velHi, [&](const MultiIndex& vi) {
          MultiIndex idx = ci;
          double wc[kMaxDim], hdv[kMaxDim];
          for (int jj = 0; jj < vdim_; ++jj) {
            idx[cdim_ + jj] = vi[jj];
            wc[jj] = grid_.cellCenter(cdim_ + jj, vi[jj]);
            hdv[jj] = 0.5 * dxv[static_cast<std::size_t>(jj)];
          }
          const double* fc = f.at(idx);
          const std::span<const double> fs(fc, static_cast<std::size_t>(np));
          // Cache the weight fields {etaMul_j f, P(|v|^2 f)} of this cell
          // via the exact eta / eta^2 multiplication tapes (g0 = f itself;
          // g1_j = wc_j f + hdv_j em_j is assembled on the fly below).
          double* em = wBuf.data() + lin * static_cast<std::size_t>((vdim_ + 1) * np);
          double* g2 = em + static_cast<std::size_t>(vdim_) * np;
          for (int l = 0; l < np; ++l) g2[l] = 0.0;
          for (int jj = 0; jj < vdim_; ++jj) {
            const std::span<double> emj(em + static_cast<std::size_t>(jj) * np,
                                        static_cast<std::size_t>(np));
            ks.etaMul[static_cast<std::size_t>(jj)].executeSet(fs, emj, 1.0);
            for (double& x : e2) x = 0.0;
            eta2Mul_[static_cast<std::size_t>(jj)].execute(fs, e2, 1.0);
            for (int l = 0; l < np; ++l)
              g2[l] += wc[jj] * wc[jj] * fc[l] + 2.0 * wc[jj] * hdv[jj] * emj[static_cast<std::size_t>(l)] +
                       hdv[jj] * hdv[jj] * e2[static_cast<std::size_t>(l)];
          }

          std::array<double, 5> mf{}, mg2{};
          momentsOf(fc, wc, hdv, mf.data());
          momentsOf(g2, wc, hdv, mg2.data());
          for (int m = 0; m < ns; ++m) {
            A(m, 0) += mf[static_cast<std::size_t>(m)];
            A(m, 1 + vdim_) += mg2[static_cast<std::size_t>(m)];
          }
          // Moments are linear: mu(g1_j) = wc_j mu(f) + hdv_j mu(etaMul_j f).
          for (int jj = 0; jj < vdim_; ++jj) {
            std::array<double, 5> me{};
            momentsOf(em + static_cast<std::size_t>(jj) * np, wc, hdv, me.data());
            for (int m = 0; m < ns; ++m)
              A(m, 1 + jj) += wc[jj] * mf[static_cast<std::size_t>(m)] +
                              hdv[jj] * me[static_cast<std::size_t>(m)];
          }
          momentsOf(inc.data() + lin * static_cast<std::size_t>(np), wc, hdv, delta.data());
          ++lin;
        });

        const LuSolver lu(std::move(A));
        if (!lu.singular()) {
          lu.solve(std::span<double>(delta.data(), static_cast<std::size_t>(ns)));
          lin = 0;
          forEachIdx(vdim_, velHi, [&](const MultiIndex& vi) {
            MultiIndex idx = ci;
            double wc[kMaxDim], hdv[kMaxDim];
            for (int jj = 0; jj < vdim_; ++jj) {
              idx[cdim_ + jj] = vi[jj];
              wc[jj] = grid_.cellCenter(cdim_ + jj, vi[jj]);
              hdv[jj] = 0.5 * dxv[static_cast<std::size_t>(jj)];
            }
            const double* fc = f.at(idx);
            const double* em = wBuf.data() + lin * static_cast<std::size_t>((vdim_ + 1) * np);
            const double* g2 = em + static_cast<std::size_t>(vdim_) * np;
            double* ic = inc.data() + lin * static_cast<std::size_t>(np);
            for (int l = 0; l < np; ++l) {
              double corr = delta[0] * fc[l];
              for (int jj = 0; jj < vdim_; ++jj)
                corr += delta[static_cast<std::size_t>(1 + jj)] *
                        (wc[jj] * fc[l] + hdv[jj] * em[static_cast<std::size_t>(jj) * np + l]);
              corr += delta[static_cast<std::size_t>(1 + vdim_)] * g2[l];
              ic[l] -= corr;
            }
            ++lin;
          });
        }
      }

      // ------------------------------------------------- accumulate
      std::size_t alin = 0;
      forEachIdx(vdim_, velHi, [&](const MultiIndex& vi) {
        MultiIndex idx = ci;
        for (int jj = 0; jj < vdim_; ++jj) idx[cdim_ + jj] = vi[jj];
        double* rc = rhs.at(idx);
        const double* ic = inc.data() + alin * static_cast<std::size_t>(np);
        for (int l = 0; l < np; ++l) rc[l] += scale * ic[l];
        ++alin;
      });
      chunkFreq = std::max(chunkFreq, freq);
    });

    std::scoped_lock lock(freqMutex);
    maxFreq = std::max(maxFreq, chunkFreq);
  });

  return scale * maxFreq;
}

}  // namespace vdg
