#include "layers.hpp"

#include <algorithm>
#include <map>
#include <string_view>

#include "app/projection.hpp"
#include "app/updaters.hpp"
#include "dg/moments.hpp"
#include "tensors/emit.hpp"

namespace perfbench {

using namespace vdg;

namespace {

/// The layer a zone directly under a step (or an RK stage) belongs to;
/// empty for zones left to the step's self time.
std::string layerOf(std::string_view zone) {
  const auto starts = [&](std::string_view p) { return zone.substr(0, p.size()) == p; };
  if (starts("vlasov:")) return "vlasov";
  if (starts("lbo:")) return "lbo";
  if (starts("bgk:")) return "bgk";
  if (zone == "field:poisson" || zone == "field:refresh") return "poisson";
  if (zone == "maxwell" || zone == "current-coupling" || zone == "fixed-field") return "maxwell";
  if (starts("boundary:") || zone == "sync:begin" || zone == "sync:finish") return "bc";
  return "";
}

/// One rank's traced steps, attributed: seconds per layer (halo phases
/// taken out of the zones that contain them), per halo phase, and the
/// step total.
struct Attribution {
  std::map<std::string, double> layer;  ///< vlasov, lbo, bgk, poisson, maxwell, bc
  std::map<std::string, double> halo;   ///< halo:pack, halo:post, halo:wait, ...
  double step = 0.0;
  double steps = 0.0;
  double solves = 0.0;  ///< field:poisson + field:refresh entries
};

Attribution attribute(const ZoneTotals& z) {
  Attribution a;
  for (const auto& [path, cs] : z.byPath) {
    const auto [count, sec] = cs;
    if (path == "step") {
      a.step = sec;
      a.steps = static_cast<double>(count);
      continue;
    }
    if (path.rfind("step/", 0) != 0) continue;
    std::vector<std::string> parts;
    for (std::size_t b = 0, e; b <= path.size(); b = e + 1) {
      e = path.find('/', b);
      if (e == std::string::npos) e = path.size();
      parts.push_back(path.substr(b, e - b));
    }
    // Layer-level zone: the step's child, or the RK stage's child.
    const std::size_t lvl = parts[1].rfind("rk:stage", 0) == 0 ? 2 : 1;
    if (parts.size() <= lvl) continue;
    const std::string& last = parts.back();
    const std::string layer = layerOf(parts[lvl]);
    if (last.rfind("halo:", 0) == 0) {
      a.halo[last] += sec;
      if (parts.size() - 1 > lvl && !layer.empty()) a.layer[layer] -= sec;
      continue;
    }
    if (parts.size() - 1 != lvl || layer.empty()) continue;
    a.layer[layer] += sec;
    if (layer == "poisson") a.solves += static_cast<double>(count);
  }
  return a;
}

double haloSum(const Attribution& a) {
  double s = 0.0;
  for (const auto& [name, sec] : a.halo) s += sec;
  return s;
}

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// Median wall seconds of `reps` calls of fn after one warm-up call.
template <typename Fn>
double timeCalls(int reps, const Fn& fn) {
  fn();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now();
    fn();
    t.push_back(now() - t0);
  }
  return median(t);
}

/// Floating-point operations one Vlasov RHS executes in the generated
/// kernels on a (local) phase grid, from the exact op counts of
/// tensors/emit: volume kernels once per cell, streaming surface kernels on
/// the N_d + 1 faces of every configuration line (the domain faces run with
/// a discarded ghost side), acceleration surface kernels on the N_j - 1
/// interior faces of every velocity line (zero-flux velocity boundaries).
double vlasovFlopsPerRhs(const BasisSpec& spec, const Grid& pg) {
  static std::map<std::string, std::vector<double>> cache;  // per spec: vol, surf per dir
  std::vector<double>& ops = cache[spec.name()];
  if (ops.empty()) {
    const auto count = [](const EmittedKernel& k) {
      return static_cast<double>(k.multiplies + k.adds);
    };
    ops.push_back(count(emitStreamingVolumeKernel(spec)) + count(emitAccelVolumeKernel(spec)));
    for (int d = 0; d < spec.cdim; ++d) ops.push_back(count(emitStreamingSurfaceKernel(spec, d)));
    for (int j = 0; j < spec.vdim; ++j) ops.push_back(count(emitAccelSurfaceKernel(spec, j)));
  }
  const double cells = static_cast<double>(pg.numCells());
  double flops = cells * ops[0];
  for (int d = 0; d < spec.ndim(); ++d) {
    const double nd = pg.cells[static_cast<std::size_t>(d)];
    const double faces = d < spec.cdim ? nd + 1.0 : nd - 1.0;
    flops += cells / nd * faces * ops[static_cast<std::size_t>(1 + d)];
  }
  return flops;
}

/// Seconds of direct calls into each layer's public functions (medians of
/// repeated calls), with the Vlasov work they cover.
struct Direct {
  double vlasov = 0.0, lbo = 0.0, bgk = 0.0, moments = 0.0, project = 0.0;
  double vlasovDofs = 0.0, vlasovFlops = 0.0;
};

/// Time the direct calls on `sim`'s current state (a single-rank
/// simulation), accumulating into `out`.
void directCalls(Simulation& sim, Direct& out) {
  StateVector& st = sim.state();
  StateView in = st.view();
  StateVector k = st.zerosLike();
  StateView kv = k.view();
  const double t = sim.time();
  // Repair the state's ghost layers first.
  for (const auto& u : sim.pipeline())
    if (u->name().rfind("boundary:", 0) == 0) u->apply(t, in, kv);
  for (const auto& u : sim.pipeline()) {
    const std::string name = u->name();
    const auto call = [&] { u->apply(t, in, kv); };
    if (name.rfind("vlasov:", 0) == 0) out.vlasov += timeCalls(3, call);
    if (name.rfind("lbo:", 0) == 0) out.lbo += timeCalls(3, call);
    if (name.rfind("bgk:", 0) == 0) out.bgk += timeCalls(3, call);
  }
  for (int s = 0; s < sim.numSpecies(); ++s) {
    const Grid cg = sim.moments(s).confGrid();
    const int npc = sim.moments(s).numConfModes();
    Field m0(cg, npc), m1(cg, 3 * npc), m2(cg, npc);
    out.moments += timeCalls(3, [&] { sim.moments(s).compute(sim.distf(s), &m0, &m1, &m2); });
    Field f(sim.phaseGrid(s), sim.phaseBasis(s).numModes());
    const Basis& b = sim.phaseBasis(s);
    const Grid& pg = sim.phaseGrid(s);
    out.project += timeCalls(3, [&] { projectOnBasis(b, pg, sim.speciesConfig(s).init, f); });
    out.vlasovDofs += static_cast<double>(pg.numCells()) * b.numModes();
    out.vlasovFlops += vlasovFlopsPerRhs(sim.phaseBasis(s).spec(), sim.phaseGrid(s));
  }
}

double stateMiB(const Simulation& sim) {
  // The stepped state plus the RHS buffer and the SSP-RK3 stage buffers:
  // four vectors of the state's layout.
  double bytes = 0.0;
  for (int i = 0; i < sim.state().numSlots(); ++i)
    bytes += static_cast<double>(sim.state().slot(i).raw().size() * sizeof(double));
  return 4.0 * bytes / (1024.0 * 1024.0);
}

/// Traced rounds, alternated with untraced rounds of `plain` when given so
/// both see the same machine state, until `seconds` pass; the traced
/// steps attributed per rank.
struct TracedRounds {
  std::vector<Attribution> att;  ///< per rank
  std::vector<double> plainWall, tracedWall;
  double iterations = 0.0;  ///< Poisson: iterations of the post-step solves
  double haloBytes = 0.0;   ///< bytes the ranks exchanged over the traced steps
};

TracedRounds tracedRounds(Run& traced, Run* plain, const Reference& ref, double seconds) {
  TracedRounds t;
  if (plain) plain->step();  // warm-up, untimed and left out of the zone deltas
  traced.step();
  const int nr = traced.ranks();
  std::vector<ZoneTotals> before;
  for (int r = 0; r < nr; ++r) before.push_back(zoneTotals(*traced.profiler(r)));
  DistributedSimulation* dist = traced.distributed();
  const double bytes0 = dist ? static_cast<double>(dist->haloBytes()) : 0.0;
  const double deadline = now() + seconds;
  do {
    if (plain) t.plainWall.push_back(runRound(*plain, ref).wall);
    const Round r = runRound(traced, ref);
    t.tracedWall.push_back(r.wall);
    t.iterations += r.solveIterations;
  } while (now() < deadline);
  for (int r = 0; r < nr; ++r)
    t.att.push_back(attribute(zoneDelta(zoneTotals(*traced.profiler(r)), before[r])));
  if (dist) t.haloBytes = static_cast<double>(dist->haloBytes()) - bytes0;
  return t;
}

}  // namespace

void runTraced(const Workload& w, double seconds, Result& res) {
  ProfilingSpec on;
  on.enabled = true;
  on.trace = true;  // events kept in memory; no file is written
  Run plain(w, ProfilingSpec{});
  Run traced(w, on);
  const Reference ref = takeReference(plain);
  const TracedRounds main = tracedRounds(traced, &plain, ref, seconds);
  const Attribution& att = main.att[0];
  const double steps = att.steps;
  const double rhs = 3.0 * steps;
  // Step self time after every zone is the RK combine/axpy work (plus
  // stage bookkeeping).
  double attributed = haloSum(att);
  for (const auto& [k, v] : att.layer) attributed += v;
  const double residual = att.step - attributed;

  Simulation& s0 = traced.rank(0);
  Direct d;
  directCalls(s0, d);
  const double lanes =
      traced.profiler(0)->metrics().gauge("batch.lanes:vlasov:" + s0.speciesConfig(0).name);
  res.steps = static_cast<long>(main.tracedWall.size() + main.plainWall.size());
  finalChecks(traced, w, ref, res.book);

  // The dg/poisson layer: a traced replica of the electrostatic scenario
  // (a third of the window), which also runs that scenario's checks.
  double poissonSetup = 0.0, solves = 0.0, poissonSeconds = 0.0, iterations = 0.0;
  double poissonSteps = 1.0;
  if (w.poissonReplica) {
    const Workload wp = makeWorkload(kPoissonScenario, w.seed);
    Run rep(wp, on);
    const Reference refP = takeReference(rep);
    const TracedRounds pr = tracedRounds(rep, nullptr, refP, seconds / 3.0);
    res.steps += static_cast<long>(pr.tracedWall.size());
    finalChecks(rep, wp, refP, res.book);
    solves = pr.att[0].solves;
    poissonSeconds = get(pr.att[0].layer, "poisson");
    poissonSteps = pr.att[0].steps;
    iterations = pr.iterations;
    const PoissonSolver& ps = *rep.rank(0).poissonSolver();
    const BasisSpec cs = ps.basis().spec();
    const Grid g = ps.grid();
    const PoissonParams pp = ps.params();
    poissonSetup = timeCalls(3, [&] { [[maybe_unused]] const PoissonSolver fresh(cs, g, pp); });
  }

  // The rank-parallel layer: a traced replica of the scenario on kParRanks
  // ranks, which also runs the replica's bitwise check against serial.
  double parBytes = 0.0, parWait = 0.0, parPack = 0.0, parReduce = 0.0;
  double parCompute = 0.0, parImbalance = 0.0;
  if (w.parReplica) {
    Workload wr = w;
    wr.ranks = kParRanks;
    Run rep(wr, on);
    const Reference refR = takeReference(rep);
    const TracedRounds par = tracedRounds(rep, nullptr, refR, seconds / 3.0);
    res.steps += static_cast<long>(par.tracedWall.size());
    finalChecks(rep, wr, refR, res.book);
    const double ps = par.att[0].steps;
    const double pr = static_cast<double>(par.att.size());
    double computeMax = 0.0, computeSum = 0.0;
    for (const Attribution& a : par.att) {
      parWait += get(a.halo, "halo:wait") / (pr * ps);
      parPack += (get(a.halo, "halo:pack") + get(a.halo, "halo:post") +
                  get(a.halo, "halo:unpack")) / (pr * ps);
      parReduce += get(a.halo, "halo:reduce") / (pr * ps);
      const double compute = a.step - haloSum(a);
      computeMax = std::max(computeMax, compute);
      computeSum += compute;
    }
    parBytes = par.haloBytes / ps;
    parCompute = computeMax / ps;
    parImbalance = computeMax / (computeSum / pr);
  }

  res.metrics = {
      {"dg.vlasov.s_per_rhs", get(att.layer, "vlasov") / rhs},
      {"dg.vlasov.dof_per_s", d.vlasovDofs / d.vlasov},
      {"dg.vlasov.gflops", d.vlasovFlops / d.vlasov * 1e-9},
      {"dg.vlasov.flops_per_rhs", d.vlasovFlops},
      {"kernels.batch_lanes", lanes},
      {"collisions.lbo.s_per_rhs", get(att.layer, "lbo") / rhs},
      {"collisions.bgk.s_per_rhs", get(att.layer, "bgk") / rhs},
      {"collisions.cost_multiplier", (d.lbo + d.bgk) / d.vlasov},
      {"dg.moments.s_per_rhs", d.moments},
      {"dg.poisson.s_per_solve", solves > 0 ? poissonSeconds / solves : 0.0},
      {"dg.poisson.iters_per_solve", solves > 0 ? iterations / poissonSteps : 0.0},
      {"dg.poisson.solves_per_step", solves / poissonSteps},
      {"dg.poisson.setup_s", poissonSetup},
      {"dg.maxwell.s_per_rhs", get(att.layer, "maxwell") / rhs},
      {"bc.sync_s_per_rhs", get(att.layer, "bc") / rhs},
      {"app.rk_combine_s_per_step", residual / steps},
      {"app.project_s", d.project},
      {"app.state_mb", stateMiB(s0)},
      {"par.halo_bytes_per_step", parBytes},
      {"par.halo_wait_s_per_step", parWait},
      {"par.halo_pack_unpack_s_per_step", parPack},
      {"par.reduce_s_per_step", parReduce},
      {"par.compute_s_per_step", parCompute},
      {"par.rank_imbalance", parImbalance},
      {"obs.trace_overhead", median(main.tracedWall) / median(main.plainWall) - 1.0},
  };
  res.info = {{"traced_steps", steps},
              {"step_s", att.step / steps},
              {"threads", kThreads},
              {"ranks", 1},
              {"par_ranks", w.parReplica ? kParRanks : 0},
              {"batch_lanes", lanes}};
}

}  // namespace perfbench
