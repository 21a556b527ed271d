#pragma once
// AoSoA cell-blocking layer for the generated kernels and the blocked
// tape executors.
//
// The generated kernels (src/kernels/gen/*.cpp) and the batched tape
// executors below operate on blocks of B cells in AoSoA layout:
// mode-major, lane-minor, element i of cell (lane) b at [i*B + b].
// Updaters gather B cells' coefficient vectors into an aligned scratch
// block with packLanes, run the kernel over the block, and scatter the
// result back with scatterLanes/scatterAddLanes. There is no separate
// one-cell path: with B = 1 the block layout is the cell layout, so cells
// left over when a count is not a multiple of B run as B = 1 blocks
// (Vlasov) or as one partial-width block (LBO tape executors).
//
// Bitwise reproducibility contract: per lane, every executor here
// performs exactly the floating-point operations of its one-cell
// counterpart (Tape2/Tape3::execute, buildAccel), in the same order and
// association. Scratch accumulators start at zero (0 + x == x in IEEE),
// and the scatter preserves each destination cell's accumulation order,
// so the lane count does not change results — tests/test_batch.cpp
// asserts the identity bit-for-bit. This file is compiled with the
// VDG_KERNEL_SIMD flags (wider ISA, -ffp-contract=off) like the generated
// kernel units.

#include <cstddef>
#include <new>
#include <vector>

#include "grid/grid.hpp"
#include "tensors/tape.hpp"
#include "tensors/vlasov_tensors.hpp"

namespace vdg {

/// Minimal over-aligned allocator so AoSoA scratch blocks start on a
/// cache-line/vector-register boundary.
template <typename T, std::size_t Align = 64>
struct AlignedAlloc {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = AlignedAlloc<U, Align>;
  };
  AlignedAlloc() = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U, Align>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
  }
  template <typename U>
  bool operator==(const AlignedAlloc<U, Align>&) const {
    return true;
  }
};

/// Aligned scratch vector for AoSoA blocks.
using BatchBuffer = std::vector<double, AlignedAlloc<double>>;

/// dst[i*B + b] = src[b][i] for i < n, b < B (gather B cells into a block).
void packLanes(int B, int n, const double* const* src, double* dst);

/// dst[i*B + b] = 0.
void zeroLanes(int B, int n, double* dst);

/// dst[b][i] = src[i*B + b] (scatter a block back, overwriting).
void scatterLanes(int B, int n, const double* src, double* const* dst);

/// dst[b][i] += src[i*B + b] (scatter-add a block of increments). Lanes
/// are written in ascending order; each dst cell receives one add per
/// element, so per-cell accumulation order is preserved.
void scatterAddLanes(int B, int n, const double* src, double* const* dst);

/// Batched Tape3 execution, a per-lane (AoSoA, like f/out):
///   out[l*B+b] += scale * c * a[m*B+b] * f[n*B+b]  per term, in term order.
void executeBatched(const Tape3& tape, int B, const double* a, const double* f, double* out,
                    double scale);

/// Batched Tape3 execution with a lane-invariant `a` in plain scalar
/// layout (e.g. the LBO diffusion coefficient, shared by every velocity
/// cell of a configuration cell):
///   out[l*B+b] += (scale * c * a[m]) * f[n*B+b]  per term, in term order.
void executeBatchedSharedA(const Tape3& tape, int B, const double* a, const double* f,
                           double* out, double scale);

/// Batched Tape2 execution: out[l*B+b] += scale * c * in[n*B+b].
void executeBatched(const Tape2& tape, int B, const double* in, double* out, double scale);

/// Batched buildAccel (tensors/vlasov_tensors.hpp): assemble
/// alpha_j = (q/m)(E + v x B)_j for the B phase cells laneIdx[0..B)
/// directly in AoSoA layout (alphaBlk has vdim * numPhaseModes * B
/// entries). The workspace expansions are lane-invariant (all lanes share
/// one configuration cell); only the cell-center velocity varies per lane,
/// so the mode loop vectorizes across lanes. Per lane the arithmetic is
/// exactly buildAccel's, in the same order.
void buildAccelBatched(const VlasovKernelSet& ks, const Grid& grid, double qbym,
                       const MultiIndex* laneIdx, int B, const AccelWorkspace& ws,
                       double* alphaBlk);

}  // namespace vdg
