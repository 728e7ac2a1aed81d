#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

using nicwarp::harness::ExperimentConfig;
using nicwarp::harness::ModelKind;
namespace warped = nicwarp::warped;

namespace {

// PHOLD churn as in the micro/phold/e2e scenario: a trivial model body, so
// the engine, the sim::Server jobs and the stats registry do most of the
// work and the Time-Warp kernel little (8 objects per LP). The horizon is an
// eighth of that scenario's 20000, which keeps the make-up and brings one
// simulation to about 1 s.
ExperimentConfig phold(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.model = ModelKind::kPhold;
  cfg.nodes = 8;
  cfg.seed = seed;
  cfg.gvt_mode = warped::GvtMode::kNic;
  cfg.gvt_period = 200;
  cfg.phold.objects = 64;
  cfg.phold.population = 4;
  cfg.phold.horizon = 2500;
  return cfg;
}

// POLICE at the early-cancellation congestion point (the Fig. 6-8 preset:
// NIC GVT at period 200, an 11.25 us per-packet NIC).
ExperimentConfig police_congestion(std::uint64_t seed, std::int64_t stations) {
  ExperimentConfig cfg;
  cfg.model = ModelKind::kPolice;
  cfg.nodes = 8;
  cfg.seed = seed;
  cfg.rollback_scope = warped::RollbackScope::kLp;
  cfg.max_sim_seconds = 600;
  cfg.police.stations = stations;
  cfg.cost.host_event_exec_us = 8.0;
  cfg.gvt_mode = warped::GvtMode::kNic;
  cfg.gvt_period = 200;
  cfg.cost.nic_per_packet_us = 11.25;
  return cfg;
}

}  // namespace

std::uint64_t input_seed(std::uint64_t seed, std::size_t i) { return seed * 1000 + i; }

ExperimentConfig workload_config(const std::string& name, std::uint64_t seed) {
  if (name == "phold") return phold(seed);
  if (name == "police_rollback") {
    // Fig. 7 without early cancellation, 250 objects per LP. The figure's
    // 2000 stations on 8 nodes thrash (6% of processed events commit) and
    // take 35-40 s a simulation; shorter calls (hops_per_call) thrash more,
    // not less. 1500 stations on 6 nodes keep 250 objects per LP; with calls
    // of 12 hops instead of 30 half the processed events roll back and one
    // simulation takes about 1.3 s.
    ExperimentConfig cfg = police_congestion(seed, 1500);
    cfg.nodes = 6;
    cfg.police.hops_per_call = 12;
    return cfg;
  }
  if (name == "police_chaos_cancel") {
    // chaos/cancel/police_mixed: early cancellation under drops, duplicates,
    // corruption and delay, so the cancellation firmware, go-back-N
    // retransmission, NAK/CRC and credit resync paths all run. Calls of 2
    // hops instead of 30 bring one simulation from ~20 s to ~1 s, and its
    // host time varies half as much between inputs as with 4 hops.
    ExperimentConfig cfg = police_congestion(seed, 900);
    cfg.police.hops_per_call = 2;
    cfg.early_cancel = true;
    cfg.fault.drop_rate = 0.01;
    cfg.fault.dup_rate = 0.005;
    cfg.fault.corrupt_rate = 0.005;
    cfg.fault.delay_rate = 0.01;
    cfg.fault.seed = seed;
    return cfg;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

ExperimentConfig reference_config(const ExperimentConfig& cfg) {
  ExperimentConfig ref = cfg;
  ref.nodes = 1;
  ref.shards = 1;
  ref.fault = {};
  ref.early_cancel = false;
  return ref;
}

}  // namespace perfbench
