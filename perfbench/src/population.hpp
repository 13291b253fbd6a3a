// The population workload: a deterministic open-loop population of
// slow-link editors, run in this process by scenario::ScenarioRunner.
// Simulated time comes from the simulator; the wall time of run() is what
// server and client CPU cost.
#pragma once

#include <string>

#include "stats.hpp"

namespace perfbench {

struct PopulationOptions {
  std::string spec_path;
  unsigned long long seed = 1;
  double seconds = 10;
};

/// Repeat parse + build + run() with the same seed until the time is spent;
/// every repeat must produce the same report. Traced: also the sim.* and
/// cache counters of the report, and codec/job timings on inputs drawn
/// the way the spec's host classes draw theirs.
void run_population(const PopulationOptions& options, bool traced,
                    Report& report);

}  // namespace perfbench
