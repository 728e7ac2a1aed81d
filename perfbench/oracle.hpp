// What one simulation produced, and the checks every measured simulation
// must pass. The expected values come from a 1-node run of the same model
// and seed, recomputed in every benchmark process; nothing is stored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace perfbench {

struct RunFacts {
  nicwarp::harness::ExperimentResult result;
  std::int64_t clock_ns = 0;     // engine clock at the end, max over shards
  std::int64_t max_busy_ns = 0;  // largest single server's busy time
  std::uint64_t engine_tasks = 0;  // Engine::executed() summed over shards
  std::int64_t server_jobs = 0;    // sum of the <server>.jobs counters
  // Sums of <server>.busy_ns by resource class (simulated time).
  std::int64_t host_cpu_busy_ns = 0;
  std::int64_t bus_busy_ns = 0;
  std::int64_t nic_cpu_busy_ns = 0;
  std::int64_t link_busy_ns = 0;
};

// Reads the counts off a testbed whose run has been extracted into `r`.
RunFacts collect_facts(nicwarp::harness::Testbed& tb, nicwarp::harness::ExperimentResult r);

struct Check {
  std::string name;
  bool ok;
};

// The checks of one measured simulation against the 1-node reference `ref`.
// Always returns the same checks in the same order, so every simulation is
// one whole round of operations.
std::vector<Check> check_run(const RunFacts& run, const nicwarp::harness::ExperimentResult& ref);

}  // namespace perfbench
