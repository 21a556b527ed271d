#pragma once
// The traced run (per-layer breakdown) and the self-test of the checks.

#include <cstdint>

#include "harness.hpp"

namespace perfbench {

/// Profiler on: alternate untraced and traced rounds for `seconds`, then
/// attribute every second of a traced step to a layer, time direct calls
/// into each layer on the run's own state, and run the output checks.
void runTraced(const Workload& w, double seconds, Result& res);

/// Show every output check failing on a deliberately corrupted input (and
/// passing on the clean one). Returns 0 when all of them do.
int runSelfTest(std::uint64_t seed);

}  // namespace perfbench
