// The benchmark's workloads: each is one simulator configuration generated
// from the seed given on the command line.
#pragma once

#include <cstdint>
#include <string>

#include "harness/experiment.hpp"

namespace perfbench {

// The seed of the i-th input of a run started with --seed `seed`. A run
// simulates several inputs so that its medians do not rest on one schedule.
std::uint64_t input_seed(std::uint64_t seed, std::size_t i);

// The configuration of `name` ("phold", "police_rollback" or
// "police_chaos_cancel"); throws std::invalid_argument for any other name.
// All are single-shard.
nicwarp::harness::ExperimentConfig workload_config(const std::string& name,
                                                   std::uint64_t seed);

// The same model and seed on one node: no optimism, network or firmware.
// Its committed events and signature are the oracle for `cfg`.
nicwarp::harness::ExperimentConfig reference_config(
    const nicwarp::harness::ExperimentConfig& cfg);

}  // namespace perfbench
