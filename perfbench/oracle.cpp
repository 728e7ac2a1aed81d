#include "oracle.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

namespace perfbench {

namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

RunFacts collect_facts(nicwarp::harness::Testbed& tb, nicwarp::harness::ExperimentResult r) {
  RunFacts f;
  f.result = std::move(r);
  nicwarp::hw::Cluster& cl = *tb.cluster;
  f.clock_ns = cl.now_max().ns;
  for (std::uint32_t s = 0; s < cl.shards(); ++s) f.engine_tasks += cl.engine(s).executed();
  // Server counters are named "host<i>.cpu", "bus<i>", "nic<i>.cpu" and
  // "link<i>" (hw/node.cpp, hw/nic.cpp, hw/network.cpp).
  for (const auto& [name, v] : cl.merged_stats().all_counters()) {
    if (ends_with(name, ".jobs")) {
      f.server_jobs += v;
    } else if (ends_with(name, ".busy_ns")) {
      f.max_busy_ns = std::max(f.max_busy_ns, v);
      const std::string_view n = name;
      if (n.starts_with("host")) {
        f.host_cpu_busy_ns += v;
      } else if (n.starts_with("bus")) {
        f.bus_busy_ns += v;
      } else if (n.starts_with("nic")) {
        f.nic_cpu_busy_ns += v;
      } else if (n.starts_with("link")) {
        f.link_busy_ns += v;
      }
    }
  }
  return f;
}

std::vector<Check> check_run(const RunFacts& run, const nicwarp::harness::ExperimentResult& ref) {
  const nicwarp::harness::ExperimentResult& r = run.result;
  return {
      {"completed", r.completed},
      {"committed_equals_reference", r.committed_events == ref.committed_events},
      {"signature_equals_reference", r.signature == ref.signature},
      {"no_retx_evicted", r.retx_evicted == 0},
      {"server_busy_within_clock", run.max_busy_ns <= run.clock_ns},
      {"committed_within_processed", r.committed_events <= r.events_processed},
      {"reference_completed", ref.completed},
      {"reference_no_rollbacks", ref.rollbacks == 0},
  };
}

}  // namespace perfbench
