#include "tensors/emit.hpp"

#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "kernels/registry.hpp"
#include "tensors/vlasov_tensors.hpp"

namespace vdg {

namespace {

/// Format a double so it round-trips exactly.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s(buf);
  // Make integer-valued constants read as doubles.
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  return s;
}

/// Element i of the current lane b of an AoSoA block of B cells
/// (mode-major, lane-minor), addressed from inside the `for (int b...)`
/// lane loop: `f[3*B+b]`.
std::string at(const std::string& arr, int i) {
  return arr + "[" + std::to_string(i) + "*B+b]";
}

/// The local Lax-Friedrichs penalty bound max(tauL, tauR), rendered as
/// std::max(tauL, tauR) evaluates it (the tape path's order). A select
/// vectorizes where a call to std::fmax scalarizes the whole lane loop.
const char* const kTauSelect = "const double tau = tauL < tauR ? tauR : tauL;";

/// Accumulates source text plus operation counts.
struct CodeWriter {
  std::ostringstream os;
  std::size_t mults = 0;
  std::size_t adds = 0;
  void line(const std::string& s) { os << s << "\n"; }
  /// A statement of the lane loop's body.
  void body(const std::string& s) { os << "    " << s << "\n"; }

  /// Render "c1*x1 + c2*x2 + ..." counting one multiply per term and one
  /// add per joint; returns "0.0" for an empty sum.
  std::string sum(const std::vector<std::pair<double, std::string>>& terms) {
    if (terms.empty()) return "0.0";
    std::string s;
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const auto& [c, x] = terms[i];
      if (i) {
        s += (c < 0 ? " - " : " + ");
        ++adds;
      } else if (c < 0) {
        s += "-";
      }
      const double a = c < 0 ? -c : c;
      if (a == 1.0) {
        s += x;
      } else {
        s += num(a) + "*" + x;
        ++mults;
      }
    }
    return s;
  }
};

std::string fnPrefix(const BasisSpec& spec) { return "vlasov_" + spec.name(); }

/// Parameter-list rendering: kernels take __restrict-qualified pointers
/// (the pack/scatter layer guarantees disjoint buffers), which lets the
/// compiler vectorize the lane loop without alias versioning.
std::string params(std::initializer_list<std::pair<const char*, const char*>> ps) {
  std::string s;
  bool first = true;
  for (const auto& [type, name] : ps) {
    if (!first) s += ", ";
    first = false;
    s += std::string(type) + "* __restrict " + name;
  }
  return s;
}

/// Gather tape terms grouped by output index l.
template <typename Tape>
std::map<int, std::vector<typename Tape::Term>> groupByOut(const Tape& tape) {
  std::map<int, std::vector<typename Tape::Term>> g;
  for (const auto& t : tape.terms) g[t.l].push_back(t);
  return g;
}

}  // namespace

EmittedKernel emitStreamingVolumeKernel(const BasisSpec& spec) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  const int np = ks.numPhaseModes;

  EmittedKernel out;
  out.functionName = fnPrefix(spec) + "_stream_vol";
  CodeWriter w;
  w.line("// Volume streaming kernel (exact DG volume integral of div_x (v f)),");
  w.line("// auto-generated for the " + spec.name() + " basis (" + std::to_string(np) +
         " DOF/cell).");
  w.line("// Inputs: cell centers w, cell size dxv, distribution coefficients f;");
  w.line("// out is incremented with the forward-Euler volume contribution.");
  w.line("template <int B>");
  w.line("void " + out.functionName + "(" +
         params({{"const double", "w"},
                 {"const double", "dxv"},
                 {"const double", "f"},
                 {"double", "out"}}) +
         ") {");
  for (int d = 0; d < ks.cdim; ++d) {
    const int vd = ks.cdim + d;
    const std::string sd = std::to_string(d);
    w.line("  const double rdx2_" + sd + " = 2.0/dxv[" + sd + "];");
    w.line("  const double hdv_" + sd + " = 0.5*dxv[" + std::to_string(vd) + "];");
    w.mults += 2;
  }
  w.line("  for (int b = 0; b < B; ++b) {");
  for (int d = 0; d < ks.cdim; ++d)
    w.body("const double wv_" + std::to_string(d) + " = " + at("w", ks.cdim + d) + ";");
  for (int l = 0; l < np; ++l) {
    for (int d = 0; d < ks.cdim; ++d) {
      // (c0*wv + c1*hdv) * f[n], gathered per n.
      std::map<int, std::pair<double, double>> byN;
      for (const Tape2::Term& t : ks.streamVol0[static_cast<std::size_t>(d)].terms)
        if (t.l == l) byN[t.n].first += t.c;
      for (const Tape2::Term& t : ks.streamVol1[static_cast<std::size_t>(d)].terms)
        if (t.l == l) byN[t.n].second += t.c;
      if (byN.empty()) continue;
      const std::string sd = std::to_string(d);
      std::string expr;
      bool first = true;
      for (const auto& [n, cc] : byN) {
        const auto& [c0, c1] = cc;
        if (!first) {
          expr += " + ";
          ++w.adds;
        }
        first = false;
        std::vector<std::pair<double, std::string>> parts;
        if (c0 != 0.0) parts.emplace_back(c0, "wv_" + sd);
        if (c1 != 0.0) parts.emplace_back(c1, "hdv_" + sd);
        expr += "(" + w.sum(parts) + ")*" + at("f", n);
        ++w.mults;
      }
      w.body(at("out", l) + " += rdx2_" + sd + "*(" + expr + ");");
      ++w.mults;
    }
  }
  w.line("  }");
  w.line("}");
  out.source = w.os.str();
  out.multiplies = w.mults;
  out.adds = w.adds;
  return out;
}

EmittedKernel emitAccelVolumeKernel(const BasisSpec& spec) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  const int np = ks.numPhaseModes;

  EmittedKernel out;
  out.functionName = fnPrefix(spec) + "_accel_vol";
  CodeWriter w;
  w.line("// Volume acceleration kernel (exact DG volume integral of div_v (alpha f));");
  w.line("// alpha is the per-cell phase-space flux expansion, vdim x " + std::to_string(np) +
         " coefficients.");
  w.line("template <int B>");
  w.line("void " + out.functionName + "(" +
         params({{"const double", "dxv"},
                 {"const double", "alpha"},
                 {"const double", "f"},
                 {"double", "out"}}) +
         ") {");
  for (int j = 0; j < ks.vdim; ++j) {
    const int d = ks.cdim + j;
    w.line("  const double rdv2_" + std::to_string(j) + " = 2.0/dxv[" + std::to_string(d) +
           "];");
    ++w.mults;
  }
  w.line("  for (int b = 0; b < B; ++b) {");
  for (int j = 0; j < ks.vdim; ++j) {
    const int d = ks.cdim + j;
    const auto grouped = groupByOut(ks.volume[static_cast<std::size_t>(d)]);
    const int off = j * np;
    for (const auto& [l, terms] : grouped) {
      std::string expr;
      for (std::size_t i = 0; i < terms.size(); ++i) {
        const auto& t = terms[i];
        if (i) {
          expr += (t.c < 0 ? " - " : " + ");
          ++w.adds;
        } else if (t.c < 0) {
          expr += "-";
        }
        const double a = t.c < 0 ? -t.c : t.c;
        expr += num(a) + "*" + at("alpha", off + t.m) + "*" + at("f", t.n);
        w.mults += 2;
      }
      w.body(at("out", l) + " += rdv2_" + std::to_string(j) + "*(" + expr + ");");
      ++w.mults;
    }
  }
  w.line("  }");
  w.line("}");
  out.source = w.os.str();
  out.multiplies = w.mults;
  out.adds = w.adds;
  return out;
}

namespace {

/// Emit face-trace assignments: name_k = sum psiEnd * src[l], one local
/// variable per face mode and lane.
void emitTrace(CodeWriter& w, const FaceMap& fm, const std::string& name, const std::string& src,
               bool plusSide) {
  std::map<int, std::vector<std::pair<double, std::string>>> byFace;
  for (const FaceMap::Entry& e : fm.entries)
    byFace[e.face].emplace_back(plusSide ? e.atPlus : e.atMinus, at(src, e.vol));
  for (int k = 0; k < fm.numFaceModes; ++k) {
    auto it = byFace.find(k);
    w.body("const double " + name + std::to_string(k) + " = " +
           (it == byFace.end() ? std::string("0.0") : w.sum(it->second)) + ";");
  }
}

/// Emit the two diagonal lifts of fhat into outl/outr.
void emitLifts(CodeWriter& w, const FaceMap& fm, const std::string& rdx2) {
  for (const FaceMap::Entry& e : fm.entries) {
    // outl[l] -= rdx2 * psiEnd(+1) * fhat_k ; outr[l] += rdx2 * psiEnd(-1) * fhat_k.
    w.body(at("outl", e.vol) + " -= " + rdx2 + "*" + num(e.atPlus) + "*fhat" +
           std::to_string(e.face) + ";");
    w.body(at("outr", e.vol) + " += " + rdx2 + "*" + num(e.atMinus) + "*fhat" +
           std::to_string(e.face) + ";");
    w.mults += 4;
  }
}

}  // namespace

EmittedKernel emitStreamingSurfaceKernel(const BasisSpec& spec, int dir) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  const FaceMap& fm = ks.faceMap[static_cast<std::size_t>(dir)];
  const int nf = fm.numFaceModes;
  const int vd = ks.cdim + dir;

  EmittedKernel out;
  out.functionName = fnPrefix(spec) + "_stream_surf" + std::to_string(dir);
  CodeWriter w;
  w.line("// Surface streaming kernel, configuration direction " + std::to_string(dir) + ":");
  w.line("// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared");
  w.line("// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).");
  w.line("template <int B>");
  w.line("void " + out.functionName + "(" +
         params({{"const double", "w"},
                 {"const double", "dxv"},
                 {"const double", "fl"},
                 {"const double", "fr"},
                 {"double", "outl"},
                 {"double", "outr"}}) +
         ") {");
  w.line("  const double rdx2 = 2.0/dxv[" + std::to_string(dir) + "];");
  w.line("  const double hdv = 0.5*dxv[" + std::to_string(vd) + "];");
  w.line("  for (int b = 0; b < B; ++b) {");
  w.body("const double wv = " + at("w", vd) + ";");
  w.body("const double tauL = std::fabs(wv - hdv);");
  w.body("const double tauR = std::fabs(wv + hdv);");
  w.body(kTauSelect);
  w.mults += 3;
  emitTrace(w, fm, "fL", "fl", /*plusSide=*/true);
  emitTrace(w, fm, "fR", "fr", /*plusSide=*/false);
  for (int k = 0; k < nf; ++k) {
    const std::string sk = std::to_string(k);
    w.body("const double favg" + sk + " = 0.5*(fL" + sk + " + fR" + sk + ");");
    ++w.mults;
    ++w.adds;
  }
  // fhat_k = wv * G0_k(favg) + hdv * G1_k(favg) - 0.5 tau (fR_k - fL_k).
  std::map<int, std::vector<std::pair<double, std::string>>> g0, g1;
  for (const Tape2::Term& t : ks.streamFace0[static_cast<std::size_t>(dir)].terms)
    g0[t.l].emplace_back(t.c, "favg" + std::to_string(t.n));
  for (const Tape2::Term& t : ks.streamFace1[static_cast<std::size_t>(dir)].terms)
    g1[t.l].emplace_back(t.c, "favg" + std::to_string(t.n));
  for (int k = 0; k < nf; ++k) {
    const std::string sk = std::to_string(k);
    std::string expr = "wv*(" + w.sum(g0[k]) + ") + hdv*(" + w.sum(g1[k]) + ") - 0.5*tau*(fR" +
                       sk + " - fL" + sk + ")";
    w.mults += 3;
    w.adds += 3;
    w.body("const double fhat" + sk + " = " + expr + ";");
  }
  emitLifts(w, fm, "rdx2");
  w.line("  }");
  w.line("}");
  out.source = w.os.str();
  out.multiplies = w.mults;
  out.adds = w.adds;
  return out;
}

EmittedKernel emitAccelSurfaceKernel(const BasisSpec& spec, int j) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  const int d = ks.cdim + j;
  const FaceMap& fm = ks.faceMap[static_cast<std::size_t>(d)];
  const int nf = fm.numFaceModes;
  const std::vector<double>& sup = ks.faceSup[static_cast<std::size_t>(d)];

  EmittedKernel out;
  out.functionName = fnPrefix(spec) + "_accel_surf" + std::to_string(j);
  CodeWriter w;
  w.line("// Surface acceleration kernel, velocity direction " + std::to_string(j) + ":");
  w.line("// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs");
  w.line("// penalty bounded by the coefficient-sup estimate of |alpha| on the face.");
  w.line("template <int B>");
  w.line("void " + out.functionName + "(" +
         params({{"const double", "dxv"},
                 {"const double", "al"},
                 {"const double", "ar"},
                 {"const double", "fl"},
                 {"const double", "fr"},
                 {"double", "outl"},
                 {"double", "outr"}}) +
         ") {");
  w.line("  const double rdx2 = 2.0/dxv[" + std::to_string(d) + "];");
  ++w.mults;
  w.line("  for (int b = 0; b < B; ++b) {");
  emitTrace(w, fm, "fL", "fl", true);
  emitTrace(w, fm, "fR", "fr", false);
  emitTrace(w, fm, "aL", "al", true);
  emitTrace(w, fm, "aR", "ar", false);
  {
    std::string bl = "0.0", br = "0.0";
    for (int k = 0; k < nf; ++k) {
      const std::string sk = std::to_string(k);
      const std::string c = num(sup[static_cast<std::size_t>(k)]);
      bl += " + " + c + "*std::fabs(aL" + sk + ")";
      br += " + " + c + "*std::fabs(aR" + sk + ")";
      w.mults += 2;
      w.adds += 2;
    }
    w.body("const double tauL = " + bl + ";");
    w.body("const double tauR = " + br + ";");
    w.body(kTauSelect);
  }
  const auto gaunt = groupByOut(ks.faceProduct[static_cast<std::size_t>(d)]);
  for (int k = 0; k < nf; ++k) {
    const std::string sk = std::to_string(k);
    std::string expr;
    const auto it = gaunt.find(k);
    if (it != gaunt.end()) {
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        const auto& t = it->second[i];
        if (i) {
          expr += (t.c < 0 ? " - " : " + ");
          ++w.adds;
        } else if (t.c < 0) {
          expr += "-";
        }
        const double a = t.c < 0 ? -t.c : t.c;
        expr += num(a) + "*(aL" + std::to_string(t.m) + "*fL" + std::to_string(t.n) + " + aR" +
                std::to_string(t.m) + "*fR" + std::to_string(t.n) + ")";
        w.mults += 3;
        w.adds += 1;
      }
    }
    if (expr.empty()) expr = "0.0";
    w.body("const double fhat" + sk + " = 0.5*(" + expr + ") - 0.5*tau*(fR" + sk + " - fL" +
           sk + ");");
    w.mults += 2;
    w.adds += 2;
  }
  emitLifts(w, fm, "rdx2");
  w.line("  }");
  w.line("}");
  out.source = w.os.str();
  out.multiplies = w.mults;
  out.adds = w.adds;
  return out;
}

std::string emitKernelTranslationUnit(const BasisSpec& spec) {
  std::ostringstream os;
  os << "// ============================================================================\n"
     << "// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.\n"
     << "// Exact (alias-free) modal DG Vlasov kernels for the " << spec.name() << " basis,\n"
     << "// rendered from the symbolically integrated sparse tensors with all\n"
     << "// constants folded to double precision (the paper's Maxima-CAS workflow).\n"
     << "// Each kernel updates an AoSoA block of B cells (mode-major, lane-minor:\n"
     << "// element i of lane b at [i*B+b]) and is instantiated at every\n"
     << "// kKernelBatchLanes entry; B = 1 is the one-cell kernel. Per lane the FP\n"
     << "// operation order is the same at every B (tests/test_batch.cpp).\n"
     << "// Regenerate with: gen_kernels <output-dir>\n"
     << "// ============================================================================\n"
     << "// clang-format off\n"
     << "#include <cmath>\n\n"
     << "#include \"kernels/registry.hpp\"\n\n"
     << "namespace vdg::gen_" << spec.name() << " {\nnamespace {\n\n";

  const VlasovKernelSet& ks = vlasovKernels(spec);
  std::vector<EmittedKernel> kernels;
  kernels.push_back(emitStreamingVolumeKernel(spec));
  kernels.push_back(emitAccelVolumeKernel(spec));
  for (int d = 0; d < ks.cdim; ++d) kernels.push_back(emitStreamingSurfaceKernel(spec, d));
  for (int j = 0; j < ks.vdim; ++j) kernels.push_back(emitAccelSurfaceKernel(spec, j));

  for (const EmittedKernel& k : kernels) os << k.source << "\n";

  const std::string fn = fnPrefix(spec);
  os << "}  // namespace\n\n"
     << "void registerKernels() {\n"
     << "  VlasovCompiledKernels k;\n"
     << "  k.numPhaseModes = " << ks.numPhaseModes << ";\n";
  for (int i = 0; i < kNumKernelBatchLanes; ++i) {
    const std::string lanes = std::to_string(kKernelBatchLanes[i]);
    const std::string set = "  k.byLanes[" + std::to_string(i) + "].";
    os << set << "lanes = " << lanes << ";\n"
       << set << "streamVol = " << fn << "_stream_vol<" << lanes << ">;\n"
       << set << "accelVol = " << fn << "_accel_vol<" << lanes << ">;\n";
    for (int d = 0; d < ks.cdim; ++d)
      os << set << "streamSurf[" << d << "] = " << fn << "_stream_surf" << d << "<" << lanes
         << ">;\n";
    for (int j = 0; j < ks.vdim; ++j)
      os << set << "accelSurf[" << j << "] = " << fn << "_accel_surf" << j << "<" << lanes
         << ">;\n";
  }
  os << "  registerCompiledKernels(\"" << spec.name() << "\", k);\n"
     << "}\n\n"
     << "}  // namespace vdg::gen_" << spec.name() << "\n";
  return os.str();
}

}  // namespace vdg
