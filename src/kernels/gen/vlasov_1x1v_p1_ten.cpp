// ============================================================================
// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.
// Exact (alias-free) modal DG Vlasov kernels for the 1x1v_p1_ten basis,
// rendered from the symbolically integrated sparse tensors with all
// constants folded to double precision (the paper's Maxima-CAS workflow).
// Each kernel updates an AoSoA block of B cells (mode-major, lane-minor:
// element i of lane b at [i*B+b]) and is instantiated at every
// kKernelBatchLanes entry; B = 1 is the one-cell kernel. Per lane the FP
// operation order is the same at every B (tests/test_batch.cpp).
// Regenerate with: gen_kernels <output-dir>
// ============================================================================
// clang-format off
#include <cmath>

#include "kernels/registry.hpp"

namespace vdg::gen_1x1v_p1_ten {
namespace {

// Volume streaming kernel (exact DG volume integral of div_x (v f)),
// auto-generated for the 1x1v_p1_ten basis (4 DOF/cell).
// Inputs: cell centers w, cell size dxv, distribution coefficients f;
// out is incremented with the forward-Euler volume contribution.
template <int B>
void vlasov_1x1v_p1_ten_stream_vol(const double* __restrict w, const double* __restrict dxv, const double* __restrict f, double* __restrict out) {
  const double rdx2_0 = 2.0/dxv[0];
  const double hdv_0 = 0.5*dxv[1];
  for (int b = 0; b < B; ++b) {
    const double wv_0 = w[1*B+b];
    out[1*B+b] += rdx2_0*((1.7320508075688785*wv_0)*f[0*B+b] + (1.0000000000000004*hdv_0)*f[2*B+b]);
    out[3*B+b] += rdx2_0*((1.0000000000000004*hdv_0)*f[0*B+b] + (1.7320508075688779*wv_0)*f[2*B+b]);
  }
}

// Volume acceleration kernel (exact DG volume integral of div_v (alpha f));
// alpha is the per-cell phase-space flux expansion, vdim x 4 coefficients.
template <int B>
void vlasov_1x1v_p1_ten_accel_vol(const double* __restrict dxv, const double* __restrict alpha, const double* __restrict f, double* __restrict out) {
  const double rdv2_0 = 2.0/dxv[1];
  for (int b = 0; b < B; ++b) {
    out[2*B+b] += rdv2_0*(0.86602540378443926*alpha[0*B+b]*f[0*B+b] + 0.86602540378443893*alpha[1*B+b]*f[1*B+b] + 0.86602540378443893*alpha[2*B+b]*f[2*B+b] + 0.8660254037844386*alpha[3*B+b]*f[3*B+b]);
    out[3*B+b] += rdv2_0*(0.86602540378443893*alpha[0*B+b]*f[1*B+b] + 0.86602540378443893*alpha[1*B+b]*f[0*B+b] + 0.8660254037844386*alpha[2*B+b]*f[3*B+b] + 0.8660254037844386*alpha[3*B+b]*f[2*B+b]);
  }
}

// Surface streaming kernel, configuration direction 0:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
template <int B>
void vlasov_1x1v_p1_ten_stream_surf0(const double* __restrict w, const double* __restrict dxv, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[0];
  const double hdv = 0.5*dxv[1];
  for (int b = 0; b < B; ++b) {
    const double wv = w[1*B+b];
    const double tauL = std::fabs(wv - hdv);
    const double tauR = std::fabs(wv + hdv);
    const double tau = tauL < tauR ? tauR : tauL;
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[1*B+b];
    const double fL1 = 0.70710678118654757*fl[2*B+b] + 1.2247448713915889*fl[3*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[1*B+b];
    const double fR1 = 0.70710678118654757*fr[2*B+b] - 1.2247448713915889*fr[3*B+b];
    const double favg0 = 0.5*(fL0 + fR0);
    const double favg1 = 0.5*(fL1 + fR1);
    const double fhat0 = wv*(1.0000000000000004*favg0) + hdv*(0.57735026918962584*favg1) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = wv*(1.0000000000000002*favg1) + hdv*(0.57735026918962584*favg0) - 0.5*tau*(fR1 - fL1);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[1*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[3*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[3*B+b] += rdx2*-1.2247448713915889*fhat1;
  }
}

// Surface acceleration kernel, velocity direction 0:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
template <int B>
void vlasov_1x1v_p1_ten_accel_surf0(const double* __restrict dxv, const double* __restrict al, const double* __restrict ar, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[1];
  for (int b = 0; b < B; ++b) {
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[2*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b] + 1.2247448713915889*fl[3*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[2*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b] - 1.2247448713915889*fr[3*B+b];
    const double aL0 = 0.70710678118654757*al[0*B+b] + 1.2247448713915889*al[2*B+b];
    const double aL1 = 0.70710678118654757*al[1*B+b] + 1.2247448713915889*al[3*B+b];
    const double aR0 = 0.70710678118654757*ar[0*B+b] - 1.2247448713915889*ar[2*B+b];
    const double aR1 = 0.70710678118654757*ar[1*B+b] - 1.2247448713915889*ar[3*B+b];
    const double tauL = 0.0 + 0.70710678118654757*std::fabs(aL0) + 1.2247448713915889*std::fabs(aL1);
    const double tauR = 0.0 + 0.70710678118654757*std::fabs(aR0) + 1.2247448713915889*std::fabs(aR1);
    const double tau = tauL < tauR ? tauR : tauL;
    const double fhat0 = 0.5*(0.70710678118654779*(aL0*fL0 + aR0*fR0) + 0.70710678118654757*(aL1*fL1 + aR1*fR1)) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = 0.5*(0.70710678118654757*(aL0*fL1 + aR0*fR1) + 0.70710678118654757*(aL1*fL0 + aR1*fR0)) - 0.5*tau*(fR1 - fL1);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[1*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[2*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[2*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[3*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[3*B+b] += rdx2*-1.2247448713915889*fhat1;
  }
}

}  // namespace

void registerKernels() {
  VlasovCompiledKernels k;
  k.numPhaseModes = 4;
  k.byLanes[0].lanes = 1;
  k.byLanes[0].streamVol = vlasov_1x1v_p1_ten_stream_vol<1>;
  k.byLanes[0].accelVol = vlasov_1x1v_p1_ten_accel_vol<1>;
  k.byLanes[0].streamSurf[0] = vlasov_1x1v_p1_ten_stream_surf0<1>;
  k.byLanes[0].accelSurf[0] = vlasov_1x1v_p1_ten_accel_surf0<1>;
  k.byLanes[1].lanes = 4;
  k.byLanes[1].streamVol = vlasov_1x1v_p1_ten_stream_vol<4>;
  k.byLanes[1].accelVol = vlasov_1x1v_p1_ten_accel_vol<4>;
  k.byLanes[1].streamSurf[0] = vlasov_1x1v_p1_ten_stream_surf0<4>;
  k.byLanes[1].accelSurf[0] = vlasov_1x1v_p1_ten_accel_surf0<4>;
  k.byLanes[2].lanes = 8;
  k.byLanes[2].streamVol = vlasov_1x1v_p1_ten_stream_vol<8>;
  k.byLanes[2].accelVol = vlasov_1x1v_p1_ten_accel_vol<8>;
  k.byLanes[2].streamSurf[0] = vlasov_1x1v_p1_ten_stream_surf0<8>;
  k.byLanes[2].accelSurf[0] = vlasov_1x1v_p1_ten_accel_surf0<8>;
  registerCompiledKernels("1x1v_p1_ten", k);
}

}  // namespace vdg::gen_1x1v_p1_ten
