// The benchmark's three workloads. Each is a seeded trace (the open-loop
// arrival schedule, fixed in simulated slots) plus the cluster, driver and
// fault configuration it replays under. See README.md for why each exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "serving/driver/replay.hpp"
#include "sim/frame_stats_cache.hpp"

namespace perfbench {

/// Links in every workload's cluster.
inline constexpr std::size_t kLinks = 4;

/// Workload names, in the order README.md documents them.
const std::vector<std::string>& workload_names();

/// The one bytes-per-slot profile every workload streams (built fresh in
/// each repetition's set-up: it is part of the measured set-up cost).
arvis::FrameStatsCache build_profile();

/// The workload's arrival trace for `seed`. Throws std::invalid_argument on
/// an unknown name.
arvis::WorkloadTrace generate_trace(const std::string& workload,
                                    std::uint64_t seed);

/// Everything a replay of `workload` needs besides the trace: the cluster,
/// driver and fault configuration (shipped defaults plus the workload's own
/// policies) and one constant-capacity channel per link.
struct Setup {
  arvis::ReplayConfig config;
  std::vector<arvis::ConstantChannel> channels;
};

Setup make_setup(const std::string& workload, std::uint64_t seed,
                 const arvis::FrameStatsCache& profile);

}  // namespace perfbench
