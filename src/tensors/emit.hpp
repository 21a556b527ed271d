#pragma once
// C++ kernel source emission — the paper's central software methodology
// (Fig. 1, Section IV): Gkeyll pre-generates its per-cell update kernels
// with the Maxima CAS; less than 8% of the code is hand-written. Here the
// symbolic tensor layer plays the CAS role and this module renders the
// sparse tapes as standalone, fully unrolled C++ functions with all
// constants folded to double precision:
//
//   - volume streaming kernel   (Fig. 1: inputs w, dxv, f -> out)
//   - volume acceleration kernel (inputs dxv, alpha, f -> out)
//   - surface streaming kernel, one per configuration direction
//     (inputs w, dxv, f_left, f_right -> increments to both cells)
//   - surface acceleration kernel, one per velocity direction
//     (inputs dxv, alpha_left/right, f_left/right -> both cells)
//
// Every kernel is emitted once, as a `template <int B>` function over an
// AoSoA block of B cells laid out mode-major, lane-minor (element i of
// lane b at [i*B+b]; `dxv` alone is one vector shared by every lane): the
// contraction sits inside an inner lane loop, with __restrict pointer
// parameters so the compiler vectorizes across cells.
// tools/gen_kernels renders one translation unit per spec into
// src/kernels/gen/, instantiated at every kKernelBatchLanes entry
// (B = 1, 4, 8) and dispatched through kernels/registry.hpp. With B = 1
// the block layout is the plain cell layout, so the B = 1 instantiation
// is the one-cell kernel; per lane every instantiation performs the same
// floating-point operations in the same order, which keeps all lane
// counts bitwise identical.
//
// Lane-loop bodies call no library function other than std::fabs
// (tests/test_kernels.cpp checks every generated spec). GCC cannot
// vectorize std::fmax/std::fmin without finite-math, and one such call
// compiles the whole kernel to scalar code with a call per lane. The
// penalty bound is therefore rendered as two locals and a select,
// `tau = tauL < tauR ? tauR : tauL`, which is the order std::max(tauL,
// tauR) evaluates: it matches the tape path (dg/vlasov.cpp) on every
// input, NaN included. The solver falls back to tape execution for
// specs without generated kernels; tests assert generated == tape to
// machine precision.

#include <cstddef>
#include <string>

#include "basis/basis.hpp"

namespace vdg {

struct EmittedKernel {
  std::string source;  ///< compilable C++ function definition
  std::string functionName;
  std::size_t multiplies = 0;  ///< multiplications in the emitted body
  std::size_t adds = 0;
};

/// Volume streaming kernel: the exact DG volume integral of div_x (v f)
/// over all configuration directions (the paper's Fig. 1 kernel shape).
///   void f(const double* w, const double* dxv, const double* f, double* out)
[[nodiscard]] EmittedKernel emitStreamingVolumeKernel(const BasisSpec& spec);

/// Volume acceleration kernel: div_v (alpha f) over all velocity
/// directions; `alpha` is the per-cell flux expansion (vdim * Np).
///   void f(const double* dxv, const double* alpha, const double* f, double* out)
[[nodiscard]] EmittedKernel emitAccelVolumeKernel(const BasisSpec& spec);

/// Surface streaming kernel for configuration direction `dir`: evaluates
/// the penalty (local Lax-Friedrichs) numerical flux on the shared face of
/// a left/right cell pair and lifts it into both cells.
///   void f(const double* w, const double* dxv,
///          const double* fl, const double* fr, double* outl, double* outr)
[[nodiscard]] EmittedKernel emitStreamingSurfaceKernel(const BasisSpec& spec, int dir);

/// Surface acceleration kernel for velocity direction `j` (phase dir
/// cdim + j), with per-side flux expansions as in paper Eq. 5.
///   void f(const double* dxv, const double* al, const double* ar,
///          const double* fl, const double* fr, double* outl, double* outr)
[[nodiscard]] EmittedKernel emitAccelSurfaceKernel(const BasisSpec& spec, int j);

/// Render the complete translation unit for one spec: every kernel above,
/// instantiated and registered for each kKernelBatchLanes entry. This is
/// what tools/gen_kernels writes into src/kernels/gen/; the build compiles
/// it with the VDG_KERNEL_SIMD flags.
[[nodiscard]] std::string emitKernelTranslationUnit(const BasisSpec& spec);

}  // namespace vdg
