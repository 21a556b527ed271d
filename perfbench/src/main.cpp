// vdg_perfbench: one run of one benchmark workload.
//
//   vdg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   vdg_perfbench --selftest --seed <n>
//
// --trace 0 measures the end-to-end metrics with the profiler off; --trace 1
// is the separate traced run that reports the per-layer breakdown. Both run
// every output check. The last line of stdout is one JSON object:
//   {"workload", "seed", "trace", "correct", "steps", "attempted", "failed",
//    "metrics": {name: value}, "checks": [...], "info": {...}}
// where "steps" counts the timed steps and "attempted"/"failed" the output
// checks.
// perfbench/run.py builds this program, isolates its environment, and turns
// that line into the benchmark's result.

#include <cstdio>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "io/num_format.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace vdg;

/// Share of a timed run's window spent on the complete builds setup_s is
/// taken from. They are interleaved with the stepping rounds, so both
/// sample the same stretch of the machine's time.
constexpr double kBuildShare = 0.15;
/// Fewest builds setup_s is taken from: a workload whose build takes about
/// a second makes up the rest after the window.
constexpr std::size_t kMinBuilds = 7;

void runTimed(const Workload& w, double seconds, Result& res) {
  const double t0 = now();
  Run run(w, ProfilingSpec{});
  const double firstBuild = now() - t0;
  const Reference ref = takeReference(run);
  run.step();  // warm-up, untimed
  // Peak RSS of one simulation: read before the builds below put a second
  // one next to it.
  const double rss = peakRssMb();
  std::vector<double> setup, wallPerTsim, eop;
  const double dofs = totalDofs(run.rank(0));
  double building = 0.0, stepping = 0.0;
  const auto timedBuild = [&] {
    const double b0 = now();
    {
      const Run extra(w, ProfilingSpec{});
      setup.push_back(now() - b0);
    }
    building += now() - b0;
  };
  const double deadline = now() + seconds;
  do {
    if (building < kBuildShare * (building + stepping)) {
      timedBuild();
    } else {
      const Round r = runRound(run, ref);
      wallPerTsim.push_back(r.wall / r.tsim);
      eop.push_back(dofs * 3.0 / (r.wall * kThreads));  // three RHS evaluations per step
      stepping += r.wall;
    }
  } while (now() < deadline);
  while (setup.size() < kMinBuilds) timedBuild();
  res.steps = static_cast<long>(wallPerTsim.size());
  finalChecks(run, w, ref, res.book);
  res.metrics = {{"wall_per_tsim_s", median(wallPerTsim)},
                 {"eop", median(eop)},
                 {"setup_s", median(setup)},
                 {"peak_rss_mb", rss}};
  const Simulation& s0 = run.rank(0);
  VlasovUpdater probe(s0.phaseBasis(0).spec(), s0.phaseGrid(0), VlasovParams{});
  res.info = {{"rounds", static_cast<double>(res.steps)},
              {"threads", kThreads},
              {"ranks", 1},
              {"batch_lanes", probe.activeBatchLanes()},
              {"dofs", dofs},
              {"cores", kThreads},
              {"setup_builds", static_cast<double>(setup.size())},
              {"first_build_s", firstBuild}};
}

void printJson(const Workload& w, int trace, const Result& res) {
  std::string s = "{\"workload\": \"" + w.name + "\", \"seed\": " + std::to_string(w.seed) +
                  ", \"trace\": " + std::to_string(trace) + ", \"correct\": " +
                  (res.book.failed() == 0 ? "true" : "false") +
                  ", \"steps\": " + std::to_string(res.steps) +
                  ", \"attempted\": " + std::to_string(res.book.attempted()) +
                  ", \"failed\": " + std::to_string(res.book.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i)
    s += (i ? ", \"" : "\"") + res.metrics[i].first + "\": " + jsonNumber(res.metrics[i].second);
  s += "}, \"checks\": [";
  const auto& cs = res.book.all();
  for (std::size_t i = 0; i < cs.size(); ++i)
    s += std::string(i ? ", " : "") + "{\"name\": \"" + cs[i].name +
         "\", \"attempted\": " + std::to_string(cs[i].attempted) +
         ", \"failed\": " + std::to_string(cs[i].failed) + ", \"worst\": " +
         jsonNumber(cs[i].worst) + ", \"limit\": " + jsonNumber(cs[i].limit) + "}";
  s += "], \"info\": {";
  for (std::size_t i = 0; i < res.info.size(); ++i)
    s += (i ? ", \"" : "\"") + res.info[i].first + "\": " + jsonNumber(res.info[i].second);
  s += "}, \"build\": {\"type\": \"" PERFBENCH_BUILD_TYPE "\", \"cxx_flags\": \""
       PERFBENCH_CXX_FLAGS "\", \"kernel_flags\": \"" PERFBENCH_KERNEL_FLAGS "\"}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value after " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") workload = value();
      else if (a == "--seed") seed = std::stoull(value());
      else if (a == "--seconds") seconds = std::stod(value());
      else if (a == "--trace") trace = std::stoi(value());
      else if (a == "--selftest") selftest = true;
      else throw std::invalid_argument("unknown argument " + a);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "vdg_perfbench: %s\n", e.what());
      return 2;
    }
  }
  try {
    if (selftest) return runSelfTest(seed);
    const Workload w = makeWorkload(workload, seed);
    Result res;
    if (trace)
      runTraced(w, seconds, res);
    else
      runTimed(w, seconds, res);
    printJson(w, trace, res);
    return res.book.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vdg_perfbench: %s\n", e.what());
    return 3;
  }
}
