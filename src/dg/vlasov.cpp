#include "dg/vlasov.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "dg/batch.hpp"
#include "par/thread_exec.hpp"

namespace vdg {

namespace {

/// Odometer iteration over the full box [0, hi[d]) for d < nd (the
/// range-restricted form is the shared math/multi_index.hpp helper).
template <typename Fn>
void forEachIdx(int nd, const int* hi, Fn fn) {
  forEachIndexInRange(nd, hi, 0, boxSize(nd, hi), fn);
}

/// Upper bound on the registry's lane counts (sizes the per-lane
/// pointer/index scratch arrays).
constexpr int kMaxLanes = kKernelBatchLanes[kNumKernelBatchLanes - 1];

}  // namespace

VlasovUpdater::VlasovUpdater(const BasisSpec& spec, const Grid& phaseGrid,
                             const VlasovParams& params)
    : ks_(&vlasovKernels(spec)), exec_(&ThreadExec::global()), grid_(phaseGrid), params_(params),
      qbym_(params.charge / params.mass), specName_(spec.name()) {
  if (phaseGrid.ndim != spec.ndim())
    throw std::invalid_argument("VlasovUpdater: grid/basis dimensionality mismatch");
  for (int d = 0; d < grid_.ndim; ++d) dxv_[static_cast<std::size_t>(d)] = grid_.dx(d);
  // Generated surface kernels bake in the penalty flux, so the compiled
  // path is only valid for FluxType::Penalty.
  if (params.flux == FluxType::Penalty) {
    const VlasovCompiledKernels* ck = findCompiledKernels(spec.name());
    if (ck && ck->numPhaseModes == ks_->numPhaseModes && ck->complete(ks_->cdim, ks_->vdim))
      compiled_ = ck;
  }
}

double VlasovUpdater::advance(const Field& f, const Field* em, Field& rhs) const {
  // Local alpha scratch keeps advance() re-entrant; callers that overlap
  // communication hold their own scratch across the volume/surface split.
  Field alpha;
  const double maxFreq = advanceVolume(f, em, rhs, alpha);
  advanceSurface(f, em, rhs, alpha);
  return maxFreq;
}

double VlasovUpdater::advanceVolume(const Field& f, const Field* em, Field& rhs,
                                    Field& alphaScratch) const {
  const VlasovKernelSet& ks = *ks_;
  const int np = ks.numPhaseModes;
  const int cdim = ks.cdim, vdim = ks.vdim, ndim = ks.ndim;
  assert(f.ncomp() == np && rhs.ncomp() == np);
  assert(!em || em->ncomp() == kEmComps * ks.numConfModes);

  // Compiled kernel sets for full blocks (bk) and for the cells left over
  // (bk1, B = 1); nullptr on the tape path. Every lane count performs the
  // same arithmetic per cell, so this only selects how it is scheduled.
  const VlasovLaneKernels* bk =
      compiled_ ? compiled_->forLanes(activeBatchLanes(), cdim, vdim) : nullptr;
  const VlasovLaneKernels* bk1 = compiled_ ? compiled_->forLanes(1, cdim, vdim) : nullptr;
  logKernelDispatch(specName_, compiled_ != nullptr, activeBatchLanes());

  rhs.setZero();
  double maxFreq = 0.0;
  std::mutex freqMutex;

  // Acceleration expansion per cell (no ghosts needed: velocity faces never
  // straddle configuration cells, config faces carry only streaming flux).
  // Written here, read back by the surface pass through the same scratch.
  Field& alphaField = alphaScratch;
  if (em &&
      (alphaField.ncomp() != vdim * np || alphaField.grid().numCells() != grid_.numCells()))
    alphaField = Field(grid_, vdim * np, 0);

  int confHi[kMaxDim], velHi[kMaxDim];
  for (int d = 0; d < cdim; ++d) confHi[d] = grid_.cells[static_cast<std::size_t>(d)];
  for (int j = 0; j < vdim; ++j) velHi[j] = grid_.cells[static_cast<std::size_t>(cdim + j)];

  const auto runChunked = [this](std::size_t n, const auto& fn) { chunkedFor(exec_, n, fn); };

  // ---------------------------------------------------------------- volume
  // Parallel over configuration cells: every phase-space cell is written by
  // exactly one chunk, so the decomposition is race-free and bitwise
  // reproducible. Acceleration prep and scratch are per-chunk locals.
  // Compiled kernels run on AoSoA blocks of B consecutive velocity cells
  // (in odometer order); the cells left over run one by one as B = 1
  // blocks through the same driver. Blocks never span chunk boundaries,
  // so threading stays bitwise serial-identical.
  runChunked(boxSize(cdim, confHi), [&](std::size_t begin, std::size_t end) {
    AccelWorkspace ws;
    std::vector<double> alpha(static_cast<std::size_t>(vdim) * np);
    double chunkFreq = 0.0;

    const std::size_t blk = bk ? static_cast<std::size_t>(bk->lanes) : 0;
    BatchBuffer wBlk(ndim * blk), fBlk(np * blk), outBlk(np * blk),
        alphaBlk(em ? vdim * np * blk : 0);
    std::array<MultiIndex, kMaxLanes> laneIdx;
    std::array<const double*, kMaxLanes> lanePtr{};
    std::array<double*, kMaxLanes> laneOut{};
    std::array<double*, kMaxLanes> laneOutAlpha{};
    std::array<double, kMaxLanes> laneFreq{};

    forEachIndexInRange(cdim, confHi, begin, end, [&](const MultiIndex& cidx) {
      // Per-configuration-cell preparation shared by all velocity cells.
      if (em) prepareAccel(ks, em->at(cidx), ws);

      // Tape-interpreted volume update of one phase-space cell.
      const auto tapeCell = [&](const MultiIndex& idx) {
        const std::span<const double> fc = f.cell(idx);
        const std::span<double> rc = rhs.cell(idx);

        double freq = 0.0;
        for (int d = 0; d < cdim; ++d) {
          const int vd = cdim + d;
          const double wc = grid_.cellCenter(vd, idx[vd]);
          const double hdv = 0.5 * grid_.dx(vd);
          const double rdx2 = 2.0 / grid_.dx(d);
          ks.streamVol0[static_cast<std::size_t>(d)].execute(fc, rc, rdx2 * wc);
          ks.streamVol1[static_cast<std::size_t>(d)].execute(fc, rc, rdx2 * hdv);
          freq += (std::abs(wc) + hdv) / grid_.dx(d);
        }
        if (em) {
          buildAccel(ks, grid_, qbym_, idx, ws, alpha);
          std::copy(alpha.begin(), alpha.end(), alphaField.at(idx));
          for (int j = 0; j < vdim; ++j) {
            const int d = cdim + j;
            const std::span<const double> aj(alpha.data() + static_cast<std::size_t>(j) * np,
                                             static_cast<std::size_t>(np));
            ks.volume[static_cast<std::size_t>(d)].execute(aj, fc, rc, 2.0 / grid_.dx(d));
            // Speed bound for the CFL frequency: |alpha| <= sum |a_l| sup|w_l|.
            double amax = 0.0;
            for (int l = 0; l < np; ++l)
              amax += std::abs(aj[static_cast<std::size_t>(l)]) *
                      ks.phaseSup[static_cast<std::size_t>(l)];
            freq += amax / grid_.dx(d);
          }
        }
        chunkFreq = std::max(chunkFreq, freq);
      };

      // Compiled volume update of the k.lanes cells idx[0..B): the
      // tape-path arithmetic per lane, scheduled as AoSoA lane loops.
      const auto block = [&](const VlasovLaneKernels& k, const MultiIndex* idx) {
        const int B = k.lanes;
        for (int b = 0; b < B; ++b) {
          lanePtr[static_cast<std::size_t>(b)] = f.at(idx[b]);
          laneOut[static_cast<std::size_t>(b)] = rhs.at(idx[b]);
        }
        for (int d = 0; d < ndim; ++d)
          for (int b = 0; b < B; ++b)
            wBlk[static_cast<std::size_t>(d * B + b)] = grid_.cellCenter(d, idx[b][d]);
        packLanes(B, np, lanePtr.data(), fBlk.data());
        zeroLanes(B, np, outBlk.data());
        k.streamVol(wBlk.data(), dxv_.data(), fBlk.data(), outBlk.data());
        for (int b = 0; b < B; ++b) {
          double freq = 0.0;
          for (int d = 0; d < cdim; ++d) {
            const int vd = cdim + d;
            freq += (std::abs(wBlk[static_cast<std::size_t>(vd * B + b)]) + 0.5 * grid_.dx(vd)) /
                    grid_.dx(d);
          }
          laneFreq[static_cast<std::size_t>(b)] = freq;
        }
        if (em) {
          // Assemble all B alpha expansions directly in AoSoA layout (the
          // workspace is lane-invariant: one configuration cell per block),
          // then scatter to alphaField for the surface pass.
          buildAccelBatched(ks, grid_, qbym_, idx, B, ws, alphaBlk.data());
          for (int b = 0; b < B; ++b)
            laneOutAlpha[static_cast<std::size_t>(b)] = alphaField.at(idx[b]);
          scatterLanes(B, vdim * np, alphaBlk.data(), laneOutAlpha.data());
          k.accelVol(dxv_.data(), alphaBlk.data(), fBlk.data(), outBlk.data());
          // CFL speed bound per lane, in the tape path's l order.
          for (int b = 0; b < B; ++b) {
            for (int j = 0; j < vdim; ++j) {
              const int d = cdim + j;
              const double* aj = alphaBlk.data() + static_cast<std::size_t>(j) * np * B;
              double amax = 0.0;
              for (int l = 0; l < np; ++l)
                amax += std::abs(aj[l * B + b]) * ks.phaseSup[static_cast<std::size_t>(l)];
              laneFreq[static_cast<std::size_t>(b)] += amax / grid_.dx(d);
            }
          }
        }
        // Volume is the first contribution to each rhs cell (rhs was
        // zeroed), so the block scatter overwrites.
        scatterLanes(B, np, outBlk.data(), laneOut.data());
        for (int b = 0; b < B; ++b)
          chunkFreq = std::max(chunkFreq, laneFreq[static_cast<std::size_t>(b)]);
      };

      if (!bk) {
        forEachIdx(vdim, velHi, [&](const MultiIndex& vidx) {
          MultiIndex idx = cidx;
          for (int j = 0; j < vdim; ++j) idx[cdim + j] = vidx[j];
          tapeCell(idx);
        });
        return;
      }
      int lane = 0;
      forEachIdx(vdim, velHi, [&](const MultiIndex& vidx) {
        MultiIndex& idx = laneIdx[static_cast<std::size_t>(lane++)];
        idx = cidx;
        for (int j = 0; j < vdim; ++j) idx[cdim + j] = vidx[j];
        if (lane == bk->lanes) {
          block(*bk, laneIdx.data());
          lane = 0;
        }
      });
      for (int b = 0; b < lane; ++b) block(*bk1, &laneIdx[static_cast<std::size_t>(b)]);
    });
    std::scoped_lock lock(freqMutex);
    maxFreq = std::max(maxFreq, chunkFreq);
  });

  return maxFreq;
}

void VlasovUpdater::advanceSurface(const Field& f, const Field* em, Field& rhs,
                                   const Field& alphaScratch) const {
  const VlasovKernelSet& ks = *ks_;
  const int np = ks.numPhaseModes;
  const int cdim = ks.cdim, vdim = ks.vdim, ndim = ks.ndim;
  assert(f.ncomp() == np && rhs.ncomp() == np);
  const Field& alphaField = alphaScratch;
  const VlasovLaneKernels* bk =
      compiled_ ? compiled_->forLanes(activeBatchLanes(), cdim, vdim) : nullptr;
  const VlasovLaneKernels* bk1 = compiled_ ? compiled_->forLanes(1, cdim, vdim) : nullptr;

  const auto runChunked = [this](std::size_t n, const auto& fn) { chunkedFor(exec_, n, fn); };

  // --------------------------------------------------------------- surface
  // Parallel per direction over the transverse "lines" of faces: the faces
  // of one line (all face-normal positions i at a fixed transverse index)
  // touch only the cells of that line, so lines decompose race-free, and
  // each cell still receives its lower-face then upper-face lift in the
  // serial order — the threaded result stays bit-for-bit serial-identical.
  // Compiled kernels gather B parallel lines and walk their faces in
  // lockstep (every lane at the same face position i, so boundary handling
  // is uniform across the block); the lines left over run one by one as
  // B = 1 blocks through the same driver.
  const bool penalty = params_.flux == FluxType::Penalty;
  for (int d = 0; d < ndim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const bool isConfDir = d < cdim;
    if (!em && !isConfDir) continue;  // no acceleration flux

    // Transverse box: all dims except d (hi[d] collapsed to one slot).
    int transHi[kMaxDim];
    int nt = 0;
    for (int i = 0; i < ndim; ++i)
      if (i != d) transHi[nt++] = grid_.cells[static_cast<std::size_t>(i)];

    runChunked(boxSize(nt, transHi), [&, d, ds, isConfDir](std::size_t begin, std::size_t end) {
      const FaceMap& fm = ks.faceMap[ds];
      const int nf = fm.numFaceModes;
      const double rdx2 = 2.0 / grid_.dx(d);

      std::vector<double> fL(static_cast<std::size_t>(nf)), fR(static_cast<std::size_t>(nf));
      std::vector<double> favg(static_cast<std::size_t>(nf)), fhat(static_cast<std::size_t>(nf));
      std::vector<double> aL(static_cast<std::size_t>(nf)), aR(static_cast<std::size_t>(nf));

      const std::size_t blk = bk ? static_cast<std::size_t>(bk->lanes) : 0;
      const std::size_t alphaBlk = isConfDir ? 0 : np * blk;
      BatchBuffer wBlk(ndim * blk), faceBlkA(np * blk), faceBlkB(np * blk), outlBlk(np * blk),
          outrBlk(np * blk), alphaBlkA(alphaBlk), alphaBlkB(alphaBlk);
      std::array<MultiIndex, kMaxLanes> lineIdx;
      std::array<const double*, kMaxLanes> srcPtr{};
      std::array<const double*, kMaxLanes> alphaPtr{};
      std::array<double*, kMaxLanes> dstPtr{};

      // Tape-interpreted face sweep of one line. `fidx` has the line's
      // transverse components set; fidx[d] is scratch.
      const auto tapeLine = [&](MultiIndex fidx) {
        // Iterate the line's faces: positions i in [0, N_d] (the idx[d] face
        // is the lower face of cell idx). Velocity-space domain boundaries
        // use the zero-flux closure (skip).
        const int nd = grid_.cells[ds];
        for (int i = isConfDir ? 0 : 1, iEnd = isConfDir ? nd : nd - 1; i <= iEnd; ++i) {
          fidx[d] = i;
          MultiIndex lidx = fidx, ridx = fidx;
          lidx[d] = i - 1;
          const bool lInterior = i > 0;
          const bool rInterior = i < nd;

          fm.restrictTo(f.cell(lidx), fL, +1);
          fm.restrictTo(f.cell(ridx), fR, -1);

          double tau = 0.0;
          for (int k = 0; k < nf; ++k)
            fhat[static_cast<std::size_t>(k)] = 0.0;

          if (isConfDir) {
            // Streaming flux v_d: single-valued on the face.
            const int vd = cdim + d;
            const double wc = grid_.cellCenter(vd, fidx[vd]);
            const double hdv = 0.5 * grid_.dx(vd);
            for (int k = 0; k < nf; ++k)
              favg[static_cast<std::size_t>(k)] =
                  0.5 * (fL[static_cast<std::size_t>(k)] + fR[static_cast<std::size_t>(k)]);
            ks.streamFace0[ds].execute(favg, fhat, wc);
            ks.streamFace1[ds].execute(favg, fhat, hdv);
            if (penalty) tau = std::max(std::abs(wc - hdv), std::abs(wc + hdv));
          } else {
            // Acceleration flux: expansion may differ between the two cells
            // (basis projection is per cell), use the paper's Eq. 5 form.
            const int j = d - cdim;
            const int off = j * np;
            fm.restrictTo({alphaField.at(lidx) + off, static_cast<std::size_t>(np)}, aL, +1);
            fm.restrictTo({alphaField.at(ridx) + off, static_cast<std::size_t>(np)}, aR, -1);
            ks.faceProduct[ds].execute(aL, fL, fhat, 0.5);
            ks.faceProduct[ds].execute(aR, fR, fhat, 0.5);
            if (penalty) {
              const std::vector<double>& sup = ks.faceSup[ds];
              double bL = 0.0, bR = 0.0;
              for (int k = 0; k < nf; ++k) {
                bL += std::abs(aL[static_cast<std::size_t>(k)]) * sup[static_cast<std::size_t>(k)];
                bR += std::abs(aR[static_cast<std::size_t>(k)]) * sup[static_cast<std::size_t>(k)];
              }
              tau = std::max(bL, bR);
            }
          }
          if (penalty && tau > 0.0)
            for (int k = 0; k < nf; ++k)
              fhat[static_cast<std::size_t>(k)] -=
                  0.5 * tau *
                  (fR[static_cast<std::size_t>(k)] - fL[static_cast<std::size_t>(k)]);

          if (lInterior) fm.lift(fhat, rhs.cell(lidx), +1, -rdx2);
          if (rInterior) fm.lift(fhat, rhs.cell(ridx), -1, +rdx2);
        }
      };

      // Compiled face sweep of the k.lanes parallel lines lines[0..B). The
      // left block of face i+1 is the right block of face i, so each step
      // packs only the right side and swaps. Per-lane pointer cursors
      // advance by one cell stride in d per face, so the sweep does no
      // per-face index arithmetic.
      const auto block = [&](const VlasovLaneKernels& k, const MultiIndex* lines) {
        const int B = k.lanes;
        const int nd = grid_.cells[ds];
        const int iBegin = isConfDir ? 0 : 1;
        const int iEnd = isConfDir ? nd : nd - 1;
        const int j = isConfDir ? -1 : d - cdim;
        const int off = isConfDir ? 0 : j * np;

        double* fl = faceBlkA.data();
        double* fr = faceBlkB.data();
        double* al = alphaBlkA.data();
        double* ar = alphaBlkB.data();

        if (isConfDir) {
          // Face-normal speed v_d per lane: a transverse (velocity)
          // coordinate of the line, constant along the whole sweep.
          const int vd = cdim + d;
          for (int b = 0; b < B; ++b)
            wBlk[static_cast<std::size_t>(vd * B + b)] = grid_.cellCenter(vd, lines[b][vd]);
        }

        // One-cell strides in d (uniform across lanes) and per-lane
        // cursors: fCur/aCur at position i (advanced at the top of each
        // face step), rCur at position i - 1 (the outl destination).
        std::ptrdiff_t fStep, rStep, aStep = 0;
        {
          MultiIndex p0 = lines[0], p1 = lines[0];
          p0[d] = iBegin - 1;
          p1[d] = iBegin;
          fStep = f.at(p1) - f.at(p0);
          rStep = rhs.at(p1) - rhs.at(p0);
          if (!isConfDir) aStep = alphaField.at(p1) - alphaField.at(p0);
        }
        for (int b = 0; b < B; ++b) {
          MultiIndex li = lines[b];
          li[d] = iBegin - 1;
          srcPtr[static_cast<std::size_t>(b)] = f.at(li);
          dstPtr[static_cast<std::size_t>(b)] = rhs.at(li);
          if (!isConfDir) alphaPtr[static_cast<std::size_t>(b)] = alphaField.at(li) + off;
        }
        packLanes(B, np, srcPtr.data(), fl);
        if (!isConfDir) packLanes(B, np, alphaPtr.data(), al);

        for (int i = iBegin; i <= iEnd; ++i) {
          for (int b = 0; b < B; ++b) srcPtr[static_cast<std::size_t>(b)] += fStep;
          packLanes(B, np, srcPtr.data(), fr);
          zeroLanes(B, np, outlBlk.data());
          zeroLanes(B, np, outrBlk.data());
          if (isConfDir) {
            k.streamSurf[d](wBlk.data(), dxv_.data(), fl, fr, outlBlk.data(), outrBlk.data());
          } else {
            for (int b = 0; b < B; ++b) alphaPtr[static_cast<std::size_t>(b)] += aStep;
            packLanes(B, np, alphaPtr.data(), ar);
            k.accelSurf[j](dxv_.data(), al, ar, fl, fr, outlBlk.data(), outrBlk.data());
          }
          // Scatter-add in face order: a cell's lower-face lift (outr of
          // face i) lands before its upper-face lift (outl of face i+1),
          // preserving the tape path's per-cell accumulation order.
          // Ghost-side outputs are simply dropped.
          if (i > 0) scatterAddLanes(B, np, outlBlk.data(), dstPtr.data());
          for (int b = 0; b < B; ++b) dstPtr[static_cast<std::size_t>(b)] += rStep;
          if (i < nd) scatterAddLanes(B, np, outrBlk.data(), dstPtr.data());
          std::swap(fl, fr);
          if (!isConfDir) std::swap(al, ar);
        }
      };

      int lane = 0;
      forEachIndexInRange(nt, transHi, begin, end, [&](const MultiIndex& tidx) {
        MultiIndex& fidx = lineIdx[static_cast<std::size_t>(lane)];
        int jt = 0;
        for (int i = 0; i < ndim; ++i)
          if (i != d) fidx[i] = tidx[jt++];
        fidx[d] = 0;
        if (!bk) {
          tapeLine(fidx);
          return;
        }
        if (++lane == bk->lanes) {
          block(*bk, lineIdx.data());
          lane = 0;
        }
      });
      for (int b = 0; b < lane; ++b) block(*bk1, &lineIdx[static_cast<std::size_t>(b)]);
    });
  }
}

void VlasovUpdater::volumeTerm(std::span<const double> f, std::span<const double> alpha,
                               const MultiIndex& cellIdx, std::span<double> out) const {
  const VlasovKernelSet& ks = *ks_;
  const int np = ks.numPhaseModes;
  const int cdim = ks.cdim, vdim = ks.vdim;
  for (double& v : out) v = 0.0;
  for (int d = 0; d < cdim; ++d) {
    const int vd = cdim + d;
    const double wc = grid_.cellCenter(vd, cellIdx[vd]);
    const double hdv = 0.5 * grid_.dx(vd);
    const double rdx2 = 2.0 / grid_.dx(d);
    ks.streamVol0[static_cast<std::size_t>(d)].execute(f, out, rdx2 * wc);
    ks.streamVol1[static_cast<std::size_t>(d)].execute(f, out, rdx2 * hdv);
  }
  if (!alpha.empty()) {
    for (int j = 0; j < vdim; ++j) {
      const int d = cdim + j;
      const std::span<const double> aj(alpha.data() + static_cast<std::size_t>(j) * np,
                                       static_cast<std::size_t>(np));
      ks.volume[static_cast<std::size_t>(d)].execute(aj, f, out, 2.0 / grid_.dx(d));
    }
  }
}

}  // namespace vdg
