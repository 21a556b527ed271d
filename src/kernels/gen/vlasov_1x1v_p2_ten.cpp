// ============================================================================
// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.
// Exact (alias-free) modal DG Vlasov kernels for the 1x1v_p2_ten basis,
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

namespace vdg::gen_1x1v_p2_ten {
namespace {

// Volume streaming kernel (exact DG volume integral of div_x (v f)),
// auto-generated for the 1x1v_p2_ten basis (9 DOF/cell).
// Inputs: cell centers w, cell size dxv, distribution coefficients f;
// out is incremented with the forward-Euler volume contribution.
template <int B>
void vlasov_1x1v_p2_ten_stream_vol(const double* __restrict w, const double* __restrict dxv, const double* __restrict f, double* __restrict out) {
  const double rdx2_0 = 2.0/dxv[0];
  const double hdv_0 = 0.5*dxv[1];
  for (int b = 0; b < B; ++b) {
    const double wv_0 = w[1*B+b];
    out[1*B+b] += rdx2_0*((1.7320508075688785*wv_0)*f[0*B+b] + (1.0000000000000004*hdv_0)*f[2*B+b]);
    out[3*B+b] += rdx2_0*((3.8729833462074179*wv_0)*f[1*B+b] + (2.2360679774997898*hdv_0)*f[4*B+b]);
    out[4*B+b] += rdx2_0*((1.0000000000000004*hdv_0)*f[0*B+b] + (1.7320508075688779*wv_0)*f[2*B+b] + (0.89442719099991685*hdv_0)*f[5*B+b]);
    out[6*B+b] += rdx2_0*((2.2360679774997898*hdv_0)*f[1*B+b] + (3.8729833462074166*wv_0)*f[4*B+b] + (2.0000000000000013*hdv_0)*f[7*B+b]);
    out[7*B+b] += rdx2_0*((0.89442719099991685*hdv_0)*f[2*B+b] + (1.7320508075688792*wv_0)*f[5*B+b]);
    out[8*B+b] += rdx2_0*((2.0000000000000013*hdv_0)*f[4*B+b] + (3.8729833462074197*wv_0)*f[7*B+b]);
  }
}

// Volume acceleration kernel (exact DG volume integral of div_v (alpha f));
// alpha is the per-cell phase-space flux expansion, vdim x 9 coefficients.
template <int B>
void vlasov_1x1v_p2_ten_accel_vol(const double* __restrict dxv, const double* __restrict alpha, const double* __restrict f, double* __restrict out) {
  const double rdv2_0 = 2.0/dxv[1];
  for (int b = 0; b < B; ++b) {
    out[2*B+b] += rdv2_0*(0.86602540378443926*alpha[0*B+b]*f[0*B+b] + 0.86602540378443893*alpha[1*B+b]*f[1*B+b] + 0.86602540378443893*alpha[2*B+b]*f[2*B+b] + 0.86602540378443971*alpha[3*B+b]*f[3*B+b] + 0.8660254037844386*alpha[4*B+b]*f[4*B+b] + 0.86602540378443971*alpha[5*B+b]*f[5*B+b] + 0.86602540378443948*alpha[6*B+b]*f[6*B+b] + 0.86602540378443937*alpha[7*B+b]*f[7*B+b] + 0.86602540378444026*alpha[8*B+b]*f[8*B+b]);
    out[4*B+b] += rdv2_0*(0.86602540378443893*alpha[0*B+b]*f[1*B+b] + 0.86602540378443893*alpha[1*B+b]*f[0*B+b] + 0.77459666924148407*alpha[1*B+b]*f[3*B+b] + 0.8660254037844386*alpha[2*B+b]*f[4*B+b] + 0.77459666924148407*alpha[3*B+b]*f[1*B+b] + 0.8660254037844386*alpha[4*B+b]*f[2*B+b] + 0.77459666924148374*alpha[4*B+b]*f[6*B+b] + 0.86602540378443937*alpha[5*B+b]*f[7*B+b] + 0.77459666924148374*alpha[6*B+b]*f[4*B+b] + 0.86602540378443937*alpha[7*B+b]*f[5*B+b] + 0.7745966692414844*alpha[7*B+b]*f[8*B+b] + 0.7745966692414844*alpha[8*B+b]*f[7*B+b]);
    out[5*B+b] += rdv2_0*(1.936491673103709*alpha[0*B+b]*f[2*B+b] + 1.9364916731037083*alpha[1*B+b]*f[4*B+b] + 1.936491673103709*alpha[2*B+b]*f[0*B+b] + 1.7320508075688785*alpha[2*B+b]*f[5*B+b] + 1.9364916731037101*alpha[3*B+b]*f[6*B+b] + 1.9364916731037083*alpha[4*B+b]*f[1*B+b] + 1.7320508075688779*alpha[4*B+b]*f[7*B+b] + 1.7320508075688785*alpha[5*B+b]*f[2*B+b] + 1.9364916731037101*alpha[6*B+b]*f[3*B+b] + 1.7320508075688794*alpha[6*B+b]*f[8*B+b] + 1.7320508075688779*alpha[7*B+b]*f[4*B+b] + 1.7320508075688794*alpha[8*B+b]*f[6*B+b]);
    out[6*B+b] += rdv2_0*(0.8660254037844396*alpha[0*B+b]*f[3*B+b] + 0.77459666924148407*alpha[1*B+b]*f[1*B+b] + 0.86602540378443926*alpha[2*B+b]*f[6*B+b] + 0.8660254037844396*alpha[3*B+b]*f[0*B+b] + 0.55328333517248951*alpha[3*B+b]*f[3*B+b] + 0.77459666924148374*alpha[4*B+b]*f[4*B+b] + 0.86602540378444004*alpha[5*B+b]*f[8*B+b] + 0.86602540378443926*alpha[6*B+b]*f[2*B+b] + 0.55328333517248929*alpha[6*B+b]*f[6*B+b] + 0.7745966692414844*alpha[7*B+b]*f[7*B+b] + 0.86602540378444004*alpha[8*B+b]*f[5*B+b] + 0.55328333517248973*alpha[8*B+b]*f[8*B+b]);
    out[7*B+b] += rdv2_0*(1.9364916731037083*alpha[0*B+b]*f[4*B+b] + 1.9364916731037083*alpha[1*B+b]*f[2*B+b] + 1.7320508075688781*alpha[1*B+b]*f[6*B+b] + 1.9364916731037083*alpha[2*B+b]*f[1*B+b] + 1.7320508075688779*alpha[2*B+b]*f[7*B+b] + 1.7320508075688781*alpha[3*B+b]*f[4*B+b] + 1.9364916731037083*alpha[4*B+b]*f[0*B+b] + 1.7320508075688781*alpha[4*B+b]*f[3*B+b] + 1.7320508075688779*alpha[4*B+b]*f[5*B+b] + 1.5491933384829681*alpha[4*B+b]*f[8*B+b] + 1.7320508075688779*alpha[5*B+b]*f[4*B+b] + 1.7320508075688781*alpha[6*B+b]*f[1*B+b] + 1.5491933384829681*alpha[6*B+b]*f[7*B+b] + 1.7320508075688779*alpha[7*B+b]*f[2*B+b] + 1.5491933384829681*alpha[7*B+b]*f[6*B+b] + 1.5491933384829681*alpha[8*B+b]*f[4*B+b]);
    out[8*B+b] += rdv2_0*(1.9364916731037098*alpha[0*B+b]*f[6*B+b] + 1.7320508075688781*alpha[1*B+b]*f[4*B+b] + 1.9364916731037098*alpha[2*B+b]*f[3*B+b] + 1.7320508075688792*alpha[2*B+b]*f[8*B+b] + 1.9364916731037098*alpha[3*B+b]*f[2*B+b] + 1.2371791482634862*alpha[3*B+b]*f[6*B+b] + 1.7320508075688781*alpha[4*B+b]*f[1*B+b] + 1.5491933384829681*alpha[4*B+b]*f[7*B+b] + 1.7320508075688792*alpha[5*B+b]*f[6*B+b] + 1.9364916731037098*alpha[6*B+b]*f[0*B+b] + 1.2371791482634862*alpha[6*B+b]*f[3*B+b] + 1.7320508075688792*alpha[6*B+b]*f[5*B+b] + 1.106566670344979*alpha[6*B+b]*f[8*B+b] + 1.5491933384829681*alpha[7*B+b]*f[4*B+b] + 1.7320508075688792*alpha[8*B+b]*f[2*B+b] + 1.106566670344979*alpha[8*B+b]*f[6*B+b]);
  }
}

// Surface streaming kernel, configuration direction 0:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
template <int B>
void vlasov_1x1v_p2_ten_stream_surf0(const double* __restrict w, const double* __restrict dxv, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[0];
  const double hdv = 0.5*dxv[1];
  for (int b = 0; b < B; ++b) {
    const double wv = w[1*B+b];
    const double tauL = std::fabs(wv - hdv);
    const double tauR = std::fabs(wv + hdv);
    const double tau = tauL < tauR ? tauR : tauL;
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[1*B+b] + 1.5811388300841898*fl[3*B+b];
    const double fL1 = 0.70710678118654757*fl[2*B+b] + 1.2247448713915889*fl[4*B+b] + 1.5811388300841898*fl[6*B+b];
    const double fL2 = 0.70710678118654757*fl[5*B+b] + 1.2247448713915889*fl[7*B+b] + 1.5811388300841898*fl[8*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[1*B+b] + 1.5811388300841898*fr[3*B+b];
    const double fR1 = 0.70710678118654757*fr[2*B+b] - 1.2247448713915889*fr[4*B+b] + 1.5811388300841898*fr[6*B+b];
    const double fR2 = 0.70710678118654757*fr[5*B+b] - 1.2247448713915889*fr[7*B+b] + 1.5811388300841898*fr[8*B+b];
    const double favg0 = 0.5*(fL0 + fR0);
    const double favg1 = 0.5*(fL1 + fR1);
    const double favg2 = 0.5*(fL2 + fR2);
    const double fhat0 = wv*(1.0000000000000004*favg0) + hdv*(0.57735026918962584*favg1) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = wv*(1.0000000000000002*favg1) + hdv*(0.57735026918962584*favg0 + 0.51639777949432253*favg2) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = wv*(1.0000000000000009*favg2) + hdv*(0.51639777949432253*favg1) - 0.5*tau*(fR2 - fL2);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[1*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[3*B+b] -= rdx2*1.5811388300841898*fhat0;
    outr[3*B+b] += rdx2*1.5811388300841898*fhat0;
    outl[4*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[4*B+b] += rdx2*-1.2247448713915889*fhat1;
    outl[5*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[5*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[6*B+b] -= rdx2*1.5811388300841898*fhat1;
    outr[6*B+b] += rdx2*1.5811388300841898*fhat1;
    outl[7*B+b] -= rdx2*1.2247448713915889*fhat2;
    outr[7*B+b] += rdx2*-1.2247448713915889*fhat2;
    outl[8*B+b] -= rdx2*1.5811388300841898*fhat2;
    outr[8*B+b] += rdx2*1.5811388300841898*fhat2;
  }
}

// Surface acceleration kernel, velocity direction 0:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
template <int B>
void vlasov_1x1v_p2_ten_accel_surf0(const double* __restrict dxv, const double* __restrict al, const double* __restrict ar, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[1];
  for (int b = 0; b < B; ++b) {
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[2*B+b] + 1.5811388300841898*fl[5*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b] + 1.2247448713915889*fl[4*B+b] + 1.5811388300841898*fl[7*B+b];
    const double fL2 = 0.70710678118654757*fl[3*B+b] + 1.2247448713915889*fl[6*B+b] + 1.5811388300841898*fl[8*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[2*B+b] + 1.5811388300841898*fr[5*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b] - 1.2247448713915889*fr[4*B+b] + 1.5811388300841898*fr[7*B+b];
    const double fR2 = 0.70710678118654757*fr[3*B+b] - 1.2247448713915889*fr[6*B+b] + 1.5811388300841898*fr[8*B+b];
    const double aL0 = 0.70710678118654757*al[0*B+b] + 1.2247448713915889*al[2*B+b] + 1.5811388300841898*al[5*B+b];
    const double aL1 = 0.70710678118654757*al[1*B+b] + 1.2247448713915889*al[4*B+b] + 1.5811388300841898*al[7*B+b];
    const double aL2 = 0.70710678118654757*al[3*B+b] + 1.2247448713915889*al[6*B+b] + 1.5811388300841898*al[8*B+b];
    const double aR0 = 0.70710678118654757*ar[0*B+b] - 1.2247448713915889*ar[2*B+b] + 1.5811388300841898*ar[5*B+b];
    const double aR1 = 0.70710678118654757*ar[1*B+b] - 1.2247448713915889*ar[4*B+b] + 1.5811388300841898*ar[7*B+b];
    const double aR2 = 0.70710678118654757*ar[3*B+b] - 1.2247448713915889*ar[6*B+b] + 1.5811388300841898*ar[8*B+b];
    const double tauL = 0.0 + 0.70710678118654757*std::fabs(aL0) + 1.2247448713915889*std::fabs(aL1) + 1.5811388300841898*std::fabs(aL2);
    const double tauR = 0.0 + 0.70710678118654757*std::fabs(aR0) + 1.2247448713915889*std::fabs(aR1) + 1.5811388300841898*std::fabs(aR2);
    const double tau = tauL < tauR ? tauR : tauL;
    const double fhat0 = 0.5*(0.70710678118654779*(aL0*fL0 + aR0*fR0) + 0.70710678118654757*(aL1*fL1 + aR1*fR1) + 0.70710678118654824*(aL2*fL2 + aR2*fR2)) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = 0.5*(0.70710678118654757*(aL0*fL1 + aR0*fR1) + 0.70710678118654757*(aL1*fL0 + aR1*fR0) + 0.63245553203367622*(aL1*fL2 + aR1*fR2) + 0.63245553203367622*(aL2*fL1 + aR2*fR1)) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = 0.5*(0.70710678118654813*(aL0*fL2 + aR0*fR2) + 0.63245553203367622*(aL1*fL1 + aR1*fR1) + 0.70710678118654813*(aL2*fL0 + aR2*fR0) + 0.45175395145262659*(aL2*fL2 + aR2*fR2)) - 0.5*tau*(fR2 - fL2);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[1*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[2*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[2*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[3*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[3*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[4*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[4*B+b] += rdx2*-1.2247448713915889*fhat1;
    outl[5*B+b] -= rdx2*1.5811388300841898*fhat0;
    outr[5*B+b] += rdx2*1.5811388300841898*fhat0;
    outl[6*B+b] -= rdx2*1.2247448713915889*fhat2;
    outr[6*B+b] += rdx2*-1.2247448713915889*fhat2;
    outl[7*B+b] -= rdx2*1.5811388300841898*fhat1;
    outr[7*B+b] += rdx2*1.5811388300841898*fhat1;
    outl[8*B+b] -= rdx2*1.5811388300841898*fhat2;
    outr[8*B+b] += rdx2*1.5811388300841898*fhat2;
  }
}

}  // namespace

void registerKernels() {
  VlasovCompiledKernels k;
  k.numPhaseModes = 9;
  k.byLanes[0].lanes = 1;
  k.byLanes[0].streamVol = vlasov_1x1v_p2_ten_stream_vol<1>;
  k.byLanes[0].accelVol = vlasov_1x1v_p2_ten_accel_vol<1>;
  k.byLanes[0].streamSurf[0] = vlasov_1x1v_p2_ten_stream_surf0<1>;
  k.byLanes[0].accelSurf[0] = vlasov_1x1v_p2_ten_accel_surf0<1>;
  k.byLanes[1].lanes = 4;
  k.byLanes[1].streamVol = vlasov_1x1v_p2_ten_stream_vol<4>;
  k.byLanes[1].accelVol = vlasov_1x1v_p2_ten_accel_vol<4>;
  k.byLanes[1].streamSurf[0] = vlasov_1x1v_p2_ten_stream_surf0<4>;
  k.byLanes[1].accelSurf[0] = vlasov_1x1v_p2_ten_accel_surf0<4>;
  k.byLanes[2].lanes = 8;
  k.byLanes[2].streamVol = vlasov_1x1v_p2_ten_stream_vol<8>;
  k.byLanes[2].accelVol = vlasov_1x1v_p2_ten_accel_vol<8>;
  k.byLanes[2].streamSurf[0] = vlasov_1x1v_p2_ten_stream_surf0<8>;
  k.byLanes[2].accelSurf[0] = vlasov_1x1v_p2_ten_accel_surf0<8>;
  registerCompiledKernels("1x1v_p2_ten", k);
}

}  // namespace vdg::gen_1x1v_p2_ten
