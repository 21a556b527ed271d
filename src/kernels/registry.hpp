#pragma once
// Registry of pre-generated (CAS-emitted, compiled) Vlasov kernels.
//
// Each generated translation unit in kernels/gen/ registers one entry per
// basis spec; VlasovUpdater queries the registry by spec name and uses the
// compiled kernels as its fast path (falling back to sparse-tape execution
// for specs without generated code, and always for central fluxes — the
// generated surface kernels bake in the penalty flux).
//
// There is one kernel family. Every kernel is a `template <int B>`
// function over an AoSoA block of B cells (mode-major, lane-minor: element
// i of cell b at [i*B + b]), and an entry holds one instantiation set per
// kKernelBatchLanes entry. B = 1 is the one-cell kernel (its block layout
// is the plain cell layout); B = 4 and B = 8 let the compiler vectorize
// across cells. Per lane the floating-point operation order is the same
// at every B, which is what makes every lane count bitwise reproducible
// against the others (tests/test_batch.cpp).

#include <string>
#include <vector>

namespace vdg {

/// Lane counts every generated kernel is instantiated at (ascending).
inline constexpr int kKernelBatchLanes[] = {1, 4, 8};
inline constexpr int kNumKernelBatchLanes = 3;

/// One kernel set for a fixed lane count B. Array arguments are blocks of
/// B cells in mode-major, lane-minor layout: element i of cell b lives at
/// [i*B + b]. The cell-geometry argument `w` is per-lane ([dim*B + b]);
/// `dxv` stays a single per-dimension vector (uniform grids: every lane
/// shares it).
struct VlasovLaneKernels {
  int lanes = 0;  ///< B; 0 when this slot is empty

  /// Volume streaming: out += sum_d (2/dxv_d) C^d(v f).
  void (*streamVol)(const double* w, const double* dxv, const double* f, double* out) = nullptr;

  /// Volume acceleration: out += sum_j (2/dxv_j) C^j(alpha_j f).
  void (*accelVol)(const double* dxv, const double* alpha, const double* f,
                   double* out) = nullptr;

  using StreamSurfFn = void (*)(const double* w, const double* dxv, const double* fl,
                                const double* fr, double* outl, double* outr);
  using AccelSurfFn = void (*)(const double* dxv, const double* al, const double* ar,
                               const double* fl, const double* fr, double* outl, double* outr);

  StreamSurfFn streamSurf[3] = {nullptr, nullptr, nullptr};  ///< per config dir
  AccelSurfFn accelSurf[3] = {nullptr, nullptr, nullptr};    ///< per velocity dir

  [[nodiscard]] bool complete(int cdim, int vdim) const {
    if (lanes <= 0 || !streamVol || !accelVol) return false;
    for (int d = 0; d < cdim; ++d)
      if (!streamSurf[d]) return false;
    for (int j = 0; j < vdim; ++j)
      if (!accelSurf[j]) return false;
    return true;
  }
};

/// One registry entry: a spec's mode count and its kernel sets, one slot
/// per kKernelBatchLanes entry (empty slots have lanes == 0).
struct VlasovCompiledKernels {
  int numPhaseModes = 0;
  VlasovLaneKernels byLanes[kNumKernelBatchLanes] = {};

  /// The set with exactly `lanes` lanes and every kernel the updater
  /// needs, or nullptr.
  [[nodiscard]] const VlasovLaneKernels* forLanes(int lanes, int cdim, int vdim) const {
    for (const VlasovLaneKernels& k : byLanes)
      if (k.lanes == lanes && k.complete(cdim, vdim)) return &k;
    return nullptr;
  }

  /// Largest complete lane count on offer (0: none).
  [[nodiscard]] int maxLanes(int cdim, int vdim) const {
    int best = 0;
    for (const VlasovLaneKernels& k : byLanes)
      if (k.complete(cdim, vdim) && k.lanes > best) best = k.lanes;
    return best;
  }

  /// True when the B = 1 set is complete: every cell count can then be
  /// covered, since cells left over by wider blocks run as B = 1 blocks.
  [[nodiscard]] bool complete(int cdim, int vdim) const {
    return forLanes(1, cdim, vdim) != nullptr;
  }
};

/// Look up compiled kernels for a spec name (BasisSpec::name()); nullptr if
/// no generated translation unit registered them.
const VlasovCompiledKernels* findCompiledKernels(const std::string& specName);

/// Called by generated code. A repeated registration for the same spec
/// replaces the previous one ("last registration wins") but is counted and
/// logged to stderr, since it usually means two generated translation
/// units were linked for one spec — see numDuplicateKernelRegistrations().
void registerCompiledKernels(const std::string& specName, const VlasovCompiledKernels& k);

/// Number of registered kernel sets (for tests / diagnostics).
int numCompiledKernelSets();

/// Names of every registered spec, sorted (for tests / diagnostics).
std::vector<std::string> listCompiledKernelSpecs();

/// Human-readable startup diagnostics: one line per registered spec with
/// its mode count and the lane counts on offer, e.g.
///   "2x3v_p2_ser: 112 modes, batch lanes {1,4,8}".
/// This is the execution-path record ensemble/distributed drivers log so
/// archived runs state which kernel path produced them.
std::vector<std::string> describeCompiledKernelSpecs();

/// Log (once per distinct message, to stderr) which execution path a
/// Vlasov updater resolved for `specName`: compiled-vs-tape and, when
/// compiled, the chosen lane count. Deduplicated so ensemble campaigns
/// constructing hundreds of updaters emit each line once.
void logKernelDispatch(const std::string& specName, bool compiled, int batchLanes);

/// How many registerCompiledKernels calls overwrote an existing entry.
int numDuplicateKernelRegistrations();

}  // namespace vdg
