// The simulator's benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Untraced (--trace 0): simulates inputs of the workload, each generated from
// the seed, through the public harness API (build_testbed ->
// run_to_completion -> extract_result) for the given number of seconds and
// reports end-to-end medians over the simulations. Traced (--trace 1): runs
// untraced simulations, traced ones, and input 0 at two shards, and reports
// the per-layer metrics (spans around the harness calls, counts read from public
// accessors, the program's PhaseProfiler, allocation counts and sampled self
// time per module). Every simulation is checked against a 1-node run of the
// same model and input; each check is one attempted operation. The last line
// of standard output is the JSON result.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.hpp"
#include "core/stats.hpp"
#include "harness/experiment.hpp"
#include "oracle.hpp"
#include "sampler.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using nicwarp::harness::ExperimentConfig;
using nicwarp::harness::ExperimentResult;

// Set-up takes 0.05-0.8 ms, far less than a simulation, so it is timed over
// extra builds of input 0 as well as the measured ones. The first build of a
// process pays for growing the heap and is left out.
constexpr int kExtraSetupBuilds = 100;
// About 250 samples per CPU second arrive; this holds a minute of them.
constexpr std::size_t kSampleCapacity = std::size_t{1} << 14;

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// VmHWM of this process. getrusage's ru_maxrss is no use here: Linux carries
// the parent's peak across fork and exec, so it reports the launcher's peak
// whenever that is larger.
double peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double per(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// One simulation, timed span by span around the three public harness calls.
struct Simulation {
  RunFacts facts;
  double setup_s = 0;
  double run_s = 0;
  double extract_s = 0;
  double cpu_s = 0;  // process CPU seconds over the three spans
  std::uint64_t setup_allocs = 0;
  std::uint64_t run_allocs = 0;

  double wall_s() const { return setup_s + run_s + extract_s; }
  double committed() const { return static_cast<double>(facts.result.committed_events); }
};

Simulation simulate(const ExperimentConfig& cfg, Sampler* sampler = nullptr) {
  Simulation s;
  const double c0 = cpu_now();
  if (sampler != nullptr) {
    sampler->resume();
    alloc_count_start();
  }
  const double t0 = wall_now();
  nicwarp::harness::Testbed tb = nicwarp::harness::build_testbed(cfg);
  const double t1 = wall_now();
  if (sampler != nullptr) {
    s.setup_allocs = alloc_count_stop();
    alloc_count_start();
  }
  const bool completed = tb.run_to_completion(cfg.max_sim_seconds);
  const double t2 = wall_now();
  if (sampler != nullptr) s.run_allocs = alloc_count_stop();
  ExperimentResult r = nicwarp::harness::extract_result(tb, completed);
  const double t3 = wall_now();
  if (sampler != nullptr) sampler->pause();
  s.cpu_s = cpu_now() - c0;
  s.setup_s = t1 - t0;
  s.run_s = t2 - t1;
  s.extract_s = t3 - t2;
  s.facts = collect_facts(tb, std::move(r));
  return s;
}

double setup_seconds(const ExperimentConfig& cfg) {
  const double t0 = wall_now();
  nicwarp::harness::Testbed tb = nicwarp::harness::build_testbed(cfg);
  return wall_now() - t0;
}

template <class F>
std::vector<double> each(const std::vector<Simulation>& sims, F f) {
  std::vector<double> v;
  v.reserve(sims.size());
  for (const Simulation& s : sims) v.push_back(f(s));
  return v;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

ExperimentResult reference_result(const ExperimentConfig& cfg) {
  return nicwarp::harness::run_experiment(reference_config(cfg));
}

struct Measured {
  std::vector<Simulation> sims;
  Tally tally;
};

// Simulates inputs 0, 1, 2, ... (make_cfg(i) is the configuration of input
// i) until the measured simulations have taken `seconds`, at least one. Each
// simulation is then checked against the 1-node run of its own input, which
// is not timed; failed checks go to stderr.
template <class MakeCfg>
Measured measure(MakeCfg make_cfg, double seconds, Sampler* sampler = nullptr) {
  Measured m;
  double spent = 0;
  for (std::size_t i = 0; i == 0 || spent < seconds; ++i) {
    const ExperimentConfig cfg = make_cfg(i);
    const double t0 = wall_now();
    m.sims.push_back(simulate(cfg, sampler));
    spent += wall_now() - t0;
    const Simulation& s = m.sims.back();
    std::printf("input %llu: wall %.4f s, cpu %.4f s, committed %lld, processed %lld, sim %.6f s\n",
                static_cast<unsigned long long>(cfg.seed), s.wall_s(), s.cpu_s,
                static_cast<long long>(s.facts.result.committed_events),
                static_cast<long long>(s.facts.result.events_processed),
                s.facts.result.sim_seconds);
    for (const Check& c : check_run(m.sims.back().facts, reference_result(cfg))) {
      ++m.tally.attempted;
      if (!c.ok) {
        ++m.tally.failed;
        std::fprintf(stderr, "check failed: %s (input %zu)\n", c.name.c_str(), i);
      }
    }
  }
  return m;
}

void report(const std::vector<Metric>& metrics, const Tally& t, std::size_t simulations) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("simulations %zu, checks attempted %llu, failed %llu\n", simulations,
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  std::string json = "{\"correct\": ";
  json += t.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Share of the samples in `b` booked to `module`.
double share(const Symbolizer::Booking& b, const char* module) {
  const auto it = b.by_module.find(module);
  if (it == b.by_module.end()) return 0.0;
  return per(static_cast<double>(it->second), static_cast<double>(b.total));
}

int run_untraced(const std::string& workload, std::uint64_t seed, double seconds) {
  auto make_cfg = [&](std::size_t i) { return workload_config(workload, input_seed(seed, i)); };
  std::vector<double> setup;
  (void)setup_seconds(make_cfg(0));
  for (int i = 0; i < kExtraSetupBuilds; ++i) setup.push_back(setup_seconds(make_cfg(0)));
  const Measured m = measure(make_cfg, seconds);
  const double peak_rss_mb = peak_rss_kb() / 1024.0;
  for (const Simulation& s : m.sims) setup.push_back(s.setup_s);

  const std::vector<Metric> metrics = {
      {"wall_s", median(each(m.sims, [](const Simulation& s) { return s.wall_s(); })), "s"},
      {"events_per_s",
       median(each(m.sims, [](const Simulation& s) { return per(s.committed(), s.run_s); })),
       "1/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"sim_s",
       median(each(m.sims, [](const Simulation& s) { return s.facts.result.sim_seconds; })),
       "s"},
  };
  report(metrics, m.tally, m.sims.size());
  return 0;
}

int run_traced(const std::string& exe, const std::string& workload, std::uint64_t seed,
               double seconds) {
  // Untraced simulations for the overhead figure, then traced ones from the
  // same first input. The workloads are single-shard, so input 0 also runs
  // at two shards: untraced for the sharding speed-up, traced for the shard
  // layer's own metrics.
  auto make_cfg = [&](std::size_t i) { return workload_config(workload, input_seed(seed, i)); };
  auto traced_cfg = [&](std::size_t i) {
    ExperimentConfig cfg = make_cfg(i);
    cfg.phase.enabled = true;
    return cfg;
  };
  auto sharded_cfg = [&](std::size_t i) {
    ExperimentConfig cfg = make_cfg(i);
    cfg.shards = 2;
    return cfg;
  };
  const Measured plain = measure(make_cfg, 0.35 * seconds);
  Sampler sampler(kSampleCapacity);
  const Measured traced = measure(traced_cfg, 0.5 * seconds, &sampler);
  Symbolizer sym(exe);
  const Symbolizer::Booking b = sym.book(sampler.samples());
  const Measured sharded = measure(sharded_cfg, 0.0);
  sampler.clear();
  const Measured sharded_traced = measure(sharded_cfg, 0.0, &sampler);
  const Symbolizer::Booking b_sharded = sym.book(sampler.samples());
  Tally t;
  for (const Measured* m : {&plain, &traced, &sharded, &sharded_traced}) {
    t.attempted += m->tally.attempted;
    t.failed += m->tally.failed;
  }

  const double traced_cpu = [&] {
    double c = 0;
    for (const Simulation& s : traced.sims) c += s.cpu_s;
    return c / static_cast<double>(traced.sims.size());
  }();
  auto self_s = [&](const char* module) { return share(b, module) * traced_cpu; };
  auto phase_s = [&](nicwarp::Phase p) {
    return median(each(traced.sims, [p](const Simulation& s) {
      return s.facts.result.phase_seconds[static_cast<std::size_t>(p)];
    }));
  };

  const Simulation& f0 = traced.sims.front();
  const RunFacts& f = f0.facts;
  const ExperimentResult& r = f.result;
  const double committed = f0.committed();
  const double plain_wall =
      median(each(plain.sims, [](const Simulation& s) { return s.wall_s(); }));
  const double traced_wall =
      median(each(traced.sims, [](const Simulation& s) { return s.wall_s(); }));

  const std::vector<Metric> metrics = {
      {"harness.run_s",
       median(each(traced.sims, [](const Simulation& s) { return s.run_s; })), "s"},
      {"harness.extract_s",
       median(each(traced.sims, [](const Simulation& s) { return s.extract_s; })), "s"},
      {"sim.engine_tasks_per_event", per(static_cast<double>(f.engine_tasks), committed),
       "1/event"},
      {"sim.self_s", self_s("sim"), "s"},
      {"core.allocs_per_event", per(static_cast<double>(f0.run_allocs), committed), "1/event"},
      {"core.setup_allocs_per_event", per(static_cast<double>(f0.setup_allocs), committed),
       "1/event"},
      {"core.stats.self_s", self_s("core.stats"), "s"},
      {"core.self_s", self_s("core"), "s"},
      {"hw.host_cpu.busy_s", static_cast<double>(f.host_cpu_busy_ns) * 1e-9, "s"},
      {"hw.bus.busy_s", static_cast<double>(f.bus_busy_ns) * 1e-9, "s"},
      {"hw.nic_cpu.busy_s", static_cast<double>(f.nic_cpu_busy_ns) * 1e-9, "s"},
      {"hw.link.busy_s", static_cast<double>(f.link_busy_ns) * 1e-9, "s"},
      {"hw.jobs_per_event", per(static_cast<double>(f.server_jobs), committed), "1/event"},
      {"hw.wire_packets", static_cast<double>(r.wire_packets), "count"},
      {"hw.retransmits", static_cast<double>(r.retransmits), "count"},
      {"hw.self_s", self_s("hw"), "s"},
      {"comm.credit_msgs", static_cast<double>(r.host_gvt_ctrl_msgs), "count"},
      {"comm.credit_resyncs", static_cast<double>(r.credit_resyncs), "count"},
      {"comm.self_s", self_s("comm"), "s"},
      {"firmware.nic_drops", static_cast<double>(r.dropped_by_nic), "count"},
      {"firmware.gvt_rounds", static_cast<double>(r.gvt_rounds), "count"},
      {"firmware.drop_ratio",
       per(static_cast<double>(r.dropped_by_nic), static_cast<double>(r.antis_generated)),
       "ratio"},
      {"firmware.self_s", self_s("firmware"), "s"},
      {"warped.rollback_efficiency",
       per(committed, static_cast<double>(r.events_processed)), "ratio"},
      {"warped.rollbacks", static_cast<double>(r.rollbacks), "count"},
      {"warped.state_save_bytes_per_event",
       per(static_cast<double>(r.state_save_bytes), committed), "B/event"},
      {"warped.phase.exec_s", phase_s(nicwarp::Phase::kEventExec), "s"},
      {"warped.phase.rollback_s", phase_s(nicwarp::Phase::kRollback), "s"},
      {"warped.phase.state_save_s", phase_s(nicwarp::Phase::kStateSave), "s"},
      {"warped.phase.gvt_s", phase_s(nicwarp::Phase::kGvt), "s"},
      {"warped.phase.comm_pump_s", phase_s(nicwarp::Phase::kCommPump), "s"},
      {"warped.self_s", self_s("warped"), "s"},
      {"models.self_s", self_s("models"), "s"},
      {"shard.rounds", static_cast<double>(sharded_traced.sims.front().facts.result.shard_rounds),
       "count"},
      {"shard.self_s", share(b_sharded, "shard") * sharded_traced.sims.front().cpu_s, "s"},
      {"shard.speedup", per(plain.sims.front().wall_s(), sharded.sims.front().wall_s()),
       "ratio"},
      {"trace.coverage", per(static_cast<double>(b.booked), static_cast<double>(b.total)),
       "ratio"},
      {"trace.overhead_s", traced_wall - plain_wall, "s"},
  };
  std::printf("samples %llu (dropped %llu)\n", static_cast<unsigned long long>(b.total),
              static_cast<unsigned long long>(sampler.dropped()));
  report(metrics, t,
         plain.sims.size() + traced.sims.size() + sharded.sims.size() + sharded_traced.sims.size());
  return 0;
}

// ---------------------------------------------------------------------------
// Self-tests of the benchmark's own machinery.

bool expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

// Spins in `body` for about `cpu_seconds` of CPU time with the sampler armed
// and returns the booking of the samples taken.
template <class F>
Symbolizer::Booking sample_busy(Sampler& sampler, Symbolizer& sym, double cpu_seconds, F body) {
  sampler.clear();
  sampler.resume();
  const double c0 = cpu_now();
  while (cpu_now() - c0 < cpu_seconds) body();
  sampler.pause();
  return sym.book(sampler.samples());
}

int self_test(const std::string& exe) {
  bool ok = true;

  ok &= expect(module_of_symbol("nicwarp::StatsRegistry::counter(std::basic_string_view<char, "
                                "std::char_traits<char> >)") == "core.stats",
               "StatsRegistry frames book to core.stats");
  ok &= expect(module_of_symbol("void nicwarp::SmallFn<void (), 96ul>::invoke<nicwarp::hw::"
                                "Nic::pump()::{lambda()#1}>(void*)") == "hw",
               "a SmallFn thunk books to the module that defined its lambda");
  ok &= expect(module_of_symbol("nicwarp::harness::(anonymous namespace)::run_sharded("
                                "nicwarp::harness::Testbed&, double)::{lambda()#1}::"
                                "operator()() const") == "shard",
               "the harness's sharded loop books to shard");
  ok &= expect(module_of_symbol("std::thread::_State_impl<std::thread::_Invoker<std::tuple<"
                                "nicwarp::harness::(anonymous namespace)::run_sharded("
                                "nicwarp::harness::Testbed&, double)::{lambda()#1}> > >::"
                                "_M_run()") == "shard",
               "a shard worker thread's entry books to shard");
  ok &= expect(module_of_symbol("std::vector<nicwarp::hw::Packet>::push_back(int)").empty(),
               "standard-library frames are skipped");

  {
    Sampler sampler(kSampleCapacity);
    Symbolizer sym(exe);
    nicwarp::StatsRegistry reg;
    std::vector<std::string> keys;
    for (int i = 0; i < 64; ++i) {
      keys.push_back("selftest.counter_with_a_long_name." + std::to_string(i));
    }
    std::size_t i = 0;
    const Symbolizer::Booking stats = sample_busy(sampler, sym, 0.5, [&] {
      for (int k = 0; k < 1000; ++k) reg.counter(keys[i++ % keys.size()]).add(1);
    });
    std::printf("  StatsRegistry loop: %llu samples, %.3f booked to core.stats\n",
                static_cast<unsigned long long>(stats.total), share(stats, "core.stats"));
    // The loop's own code is inlined into this file and books nowhere; every
    // sample that reached the simulator must be in StatsRegistry.
    ok &= expect(stats.total >= 50 && stats.by_module.size() == 1 &&
                     share(stats, "core.stats") >= 0.75,
                 "sampler books a StatsRegistry busy loop to core.stats");

    nicwarp::sim::Engine engine;
    std::uint64_t sink = 0;
    const Symbolizer::Booking eng = sample_busy(sampler, sym, 0.5, [&] {
      for (int k = 0; k < 1000; ++k) {
        engine.schedule(nicwarp::SimTime{(k * 7919) % 1000}, [&sink] { ++sink; });
      }
      engine.run();
    });
    std::printf("  Engine loop: %llu samples, %.3f booked to sim\n",
                static_cast<unsigned long long>(eng.total), share(eng, "sim"));
    ok &= expect(eng.total >= 50 && share(eng, "sim") >= 0.5,
                 "sampler books an Engine schedule/run loop to sim");
  }

  ExperimentConfig cfg = workload_config("phold", 7);
  cfg.phold.horizon = 2000;
  Sampler sampler(kSampleCapacity);
  (void)simulate(cfg);  // first-use allocations (function-local statics)
  const Simulation a = simulate(cfg, &sampler);
  const Simulation b = simulate(cfg, &sampler);
  const RunFacts& fa = a.facts;
  const RunFacts& fb = b.facts;
  ok &= expect(fa.engine_tasks == fb.engine_tasks && fa.server_jobs == fb.server_jobs &&
                   fa.host_cpu_busy_ns == fb.host_cpu_busy_ns &&
                   fa.bus_busy_ns == fb.bus_busy_ns && fa.nic_cpu_busy_ns == fb.nic_cpu_busy_ns &&
                   fa.link_busy_ns == fb.link_busy_ns &&
                   fa.result.wire_packets == fb.result.wire_packets &&
                   a.run_allocs == b.run_allocs && a.setup_allocs == b.setup_allocs,
               "deterministic per-layer counts repeat between two single-shard runs");
  ok &= expect(a.run_allocs > 0 && fa.engine_tasks > 0, "the counts are not empty");

  const ExperimentResult ref = reference_result(cfg);
  ExperimentResult wrong = ref;
  wrong.signature += 1;
  std::size_t right_failed = 0, wrong_failed = 0;
  for (const Check& c : check_run(fa, ref)) right_failed += c.ok ? 0 : 1;
  for (const Check& c : check_run(fa, wrong)) wrong_failed += c.ok ? 0 : 1;
  ok &= expect(right_failed == 0, "a run passes every check against its 1-node reference");
  ok &= expect(wrong_failed == 1, "a wrong expected signature is counted as a failure");

  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> opt;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--self-test") {
      self = true;
    } else if (a.starts_with("--") && i + 1 < argc) {
      opt[std::string(a.substr(2))] = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    if (self) return self_test(argv[0]);
    if (!opt.count("workload") || !opt.count("seed") || !opt.count("seconds")) return usage();
    const std::uint64_t seed = std::stoull(opt["seed"]);
    const double seconds = std::stod(opt["seconds"]);
    const bool trace = opt.count("trace") && opt["trace"] != "0";
    if (!(seconds > 0 && seconds <= 600)) return usage();
    const std::string& workload = opt["workload"];
    (void)workload_config(workload, seed);  // rejects an unknown name
    return trace ? run_traced(argv[0], workload, seed, seconds)
                 : run_untraced(workload, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
