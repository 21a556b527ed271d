#include "dg/batch.hpp"

namespace vdg {

// Every entry point dispatches the lane count to a compile-time template
// instantiation for the registry's lane counts (1, 4, 8) so the inner lane
// loops have constant trip counts the compiler fully vectorizes (or, at
// B = 1, drops); other counts, such as the partial-width LBO remainder
// block, take the runtime-B fallback.

namespace {

template <int B>
void packImpl(int n, const double* const* __restrict src, double* __restrict dst) {
  for (int i = 0; i < n; ++i)
    for (int b = 0; b < B; ++b) dst[i * B + b] = src[b][i];
}

template <int B>
void scatterImpl(int n, const double* __restrict src, double* const* __restrict dst) {
  for (int b = 0; b < B; ++b) {
    double* __restrict d = dst[b];
    for (int i = 0; i < n; ++i) d[i] = src[i * B + b];
  }
}

template <int B>
void scatterAddImpl(int n, const double* __restrict src, double* const* __restrict dst) {
  for (int b = 0; b < B; ++b) {
    double* __restrict d = dst[b];
    for (int i = 0; i < n; ++i) d[i] += src[i * B + b];
  }
}

template <int B>
void tape3Impl(const Tape3& tape, const double* __restrict a, const double* __restrict f,
               double* __restrict out, double scale) {
  for (const Tape3::Term& t : tape.terms) {
    const double c = scale * t.c;  // == scalar's (scale * c); lane-invariant
    const double* __restrict ab = a + static_cast<std::size_t>(t.m) * B;
    const double* __restrict fb = f + static_cast<std::size_t>(t.n) * B;
    double* __restrict ob = out + static_cast<std::size_t>(t.l) * B;
    for (int b = 0; b < B; ++b) ob[b] += c * ab[b] * fb[b];
  }
}

template <int B>
void tape3SharedAImpl(const Tape3& tape, const double* __restrict a,
                      const double* __restrict f, double* __restrict out, double scale) {
  for (const Tape3::Term& t : tape.terms) {
    // Lane-invariant coefficient, associated exactly as the scalar
    // executor's ((scale * c) * a[m]) * f[n].
    const double ca = scale * t.c * a[static_cast<std::size_t>(t.m)];
    const double* __restrict fb = f + static_cast<std::size_t>(t.n) * B;
    double* __restrict ob = out + static_cast<std::size_t>(t.l) * B;
    for (int b = 0; b < B; ++b) ob[b] += ca * fb[b];
  }
}

/// Levi-Civita symbol on {0,1,2} (mirrors the helper in
/// tensors/vlasov_tensors.cpp — the two must agree for bitwise identity
/// of buildAccelBatched vs buildAccel).
constexpr int levi3(int i, int j, int k) {
  if (i == j || j == k || i == k) return 0;
  return ((j - i + 3) % 3 == 1) ? 1 : -1;
}

template <int B>
void buildAccelImpl(const VlasovKernelSet& ks, const Grid& grid, double qbym,
                    const MultiIndex* laneIdx, const AccelWorkspace& ws,
                    double* __restrict alphaBlk) {
  const int np = ks.numPhaseModes;
  const int cdim = ks.cdim, vdim = ks.vdim;
  double wc[B];
  for (int j = 0; j < vdim; ++j) {
    double* __restrict aj = alphaBlk + static_cast<std::size_t>(j) * np * B;
    const double* __restrict ej = ws.embE.data() + static_cast<std::size_t>(j) * np;
    for (int l = 0; l < np; ++l)
      for (int b = 0; b < B; ++b) aj[l * B + b] = ej[l];
    for (int k = 0; k < vdim; ++k) {
      const int vk = cdim + k;
      for (int b = 0; b < B; ++b) wc[b] = grid.cellCenter(vk, laneIdx[b][vk]);
      const double hdv = 0.5 * grid.dx(vk);
      for (int bc = 0; bc < 3; ++bc) {
        const int s = levi3(j, k, bc);
        if (s == 0) continue;
        const double* __restrict bb = ws.embB.data() + static_cast<std::size_t>(bc) * np;
        const double* __restrict mb =
            ws.mulB.data() + (static_cast<std::size_t>(k) * 3 + static_cast<std::size_t>(bc)) * np;
        // Exactly buildAccel's update per lane: aj += s * (wc*bb + hdv*mb).
        for (int l = 0; l < np; ++l)
          for (int b = 0; b < B; ++b) aj[l * B + b] += s * (wc[b] * bb[l] + hdv * mb[l]);
      }
    }
    const std::size_t total = static_cast<std::size_t>(np) * B;
    for (std::size_t i = 0; i < total; ++i) aj[i] *= qbym;
  }
}

template <int B>
void tape2Impl(const Tape2& tape, const double* __restrict in, double* __restrict out,
               double scale) {
  for (const Tape2::Term& t : tape.terms) {
    const double c = scale * t.c;
    const double* __restrict ib = in + static_cast<std::size_t>(t.n) * B;
    double* __restrict ob = out + static_cast<std::size_t>(t.l) * B;
    for (int b = 0; b < B; ++b) ob[b] += c * ib[b];
  }
}

}  // namespace

void packLanes(int B, int n, const double* const* src, double* dst) {
  switch (B) {
    case 1: packImpl<1>(n, src, dst); return;
    case 4: packImpl<4>(n, src, dst); return;
    case 8: packImpl<8>(n, src, dst); return;
    default:
      for (int i = 0; i < n; ++i)
        for (int b = 0; b < B; ++b) dst[i * B + b] = src[b][i];
  }
}

void zeroLanes(int B, int n, double* dst) {
  const std::size_t total = static_cast<std::size_t>(B) * static_cast<std::size_t>(n);
  for (std::size_t i = 0; i < total; ++i) dst[i] = 0.0;
}

void scatterLanes(int B, int n, const double* src, double* const* dst) {
  switch (B) {
    case 1: scatterImpl<1>(n, src, dst); return;
    case 4: scatterImpl<4>(n, src, dst); return;
    case 8: scatterImpl<8>(n, src, dst); return;
    default:
      for (int b = 0; b < B; ++b)
        for (int i = 0; i < n; ++i) dst[b][i] = src[i * B + b];
  }
}

void scatterAddLanes(int B, int n, const double* src, double* const* dst) {
  switch (B) {
    case 1: scatterAddImpl<1>(n, src, dst); return;
    case 4: scatterAddImpl<4>(n, src, dst); return;
    case 8: scatterAddImpl<8>(n, src, dst); return;
    default:
      for (int b = 0; b < B; ++b)
        for (int i = 0; i < n; ++i) dst[b][i] += src[i * B + b];
  }
}

void executeBatched(const Tape3& tape, int B, const double* a, const double* f, double* out,
                    double scale) {
  switch (B) {
    case 1: tape3Impl<1>(tape, a, f, out, scale); return;
    case 4: tape3Impl<4>(tape, a, f, out, scale); return;
    case 8: tape3Impl<8>(tape, a, f, out, scale); return;
    default:
      for (const Tape3::Term& t : tape.terms) {
        const double c = scale * t.c;
        for (int b = 0; b < B; ++b)
          out[t.l * B + b] += c * a[t.m * B + b] * f[t.n * B + b];
      }
  }
}

void executeBatchedSharedA(const Tape3& tape, int B, const double* a, const double* f,
                           double* out, double scale) {
  switch (B) {
    case 1: tape3SharedAImpl<1>(tape, a, f, out, scale); return;
    case 4: tape3SharedAImpl<4>(tape, a, f, out, scale); return;
    case 8: tape3SharedAImpl<8>(tape, a, f, out, scale); return;
    default:
      for (const Tape3::Term& t : tape.terms) {
        const double ca = scale * t.c * a[static_cast<std::size_t>(t.m)];
        for (int b = 0; b < B; ++b) out[t.l * B + b] += ca * f[t.n * B + b];
      }
  }
}

void buildAccelBatched(const VlasovKernelSet& ks, const Grid& grid, double qbym,
                       const MultiIndex* laneIdx, int B, const AccelWorkspace& ws,
                       double* alphaBlk) {
  switch (B) {
    case 1: buildAccelImpl<1>(ks, grid, qbym, laneIdx, ws, alphaBlk); return;
    case 4: buildAccelImpl<4>(ks, grid, qbym, laneIdx, ws, alphaBlk); return;
    case 8: buildAccelImpl<8>(ks, grid, qbym, laneIdx, ws, alphaBlk); return;
    default:
      // Runtime-B fallback: same arithmetic, lane loop not unrolled.
      for (int b = 0; b < B; ++b) {
        std::vector<double> alpha(static_cast<std::size_t>(ks.vdim) * ks.numPhaseModes);
        buildAccel(ks, grid, qbym, laneIdx[b], ws, alpha);
        for (std::size_t i = 0; i < alpha.size(); ++i)
          alphaBlk[i * static_cast<std::size_t>(B) + static_cast<std::size_t>(b)] = alpha[i];
      }
  }
}

void executeBatched(const Tape2& tape, int B, const double* in, double* out, double scale) {
  switch (B) {
    case 1: tape2Impl<1>(tape, in, out, scale); return;
    case 4: tape2Impl<4>(tape, in, out, scale); return;
    case 8: tape2Impl<8>(tape, in, out, scale); return;
    default:
      for (const Tape2::Term& t : tape.terms) {
        const double c = scale * t.c;
        for (int b = 0; b < B; ++b) out[t.l * B + b] += c * in[t.n * B + b];
      }
  }
}

}  // namespace vdg
