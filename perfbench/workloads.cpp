#include "workloads.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "datasets/catalog.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/driver/scenario.hpp"

namespace perfbench {

namespace {

using arvis::QosClass;

const std::vector<int> kCandidates{3, 4, 5, 6};

// cohort: the paper's regime, a fixed fleet streaming the whole horizon.
constexpr std::size_t kCohortSessions = 8'000;
constexpr std::size_t kCohortHorizon = 1'000;
// Share of the cohort that abandons mid-stream (keeps the close path live).
constexpr double kCohortAbandon = 0.01;

// flash_churn: short sessions, over-subscribed base plus an x8 spike.
constexpr std::size_t kFlashHorizon = 2'000;
constexpr double kFlashMeanDuration = 20.0;
constexpr std::size_t kFlashMaxDuration = 200;
constexpr std::size_t kFlashSpikeSlots = 100;
constexpr double kFlashSpikeMultiplier = 8.0;
// Sessions the cluster holds at the cheapest depth, and the base offered
// concurrency as a multiple of it.
constexpr double kFlashCapacitySessions = 2'000.0;
constexpr double kFlashPressure = 1.1;
// A token abandonment share: keeps the close path live without letting its
// cost (SessionStore::find scans the slab) reshape this workload.
constexpr double kFlashAbandon = 0.002;

// handover_chaos: medium sessions under faults, handover and retries.
constexpr std::size_t kChaosHorizon = 2'000;
constexpr double kChaosMeanDuration = 150.0;
constexpr std::size_t kChaosMaxDuration = 600;
constexpr double kChaosCapacitySessions = 5'000.0;
constexpr double kChaosPressure = 0.6;
constexpr double kChaosAbandon = 0.05;

/// Gives a `share` of the rows an external close at a uniform slot strictly
/// inside their stay (rows that stay one slot cannot abandon).
void add_abandonment(arvis::WorkloadTrace& trace, double share,
                     std::uint64_t seed) {
  arvis::Rng rng(seed ^ 0xAB5E11ULL);
  for (arvis::TraceEvent& event : trace.events) {
    if (rng.next_double() >= share || event.duration < 2) continue;
    event.t_close =
        event.t_arrive + 1 + rng.next_u64() % (event.duration - 1);
  }
}

arvis::WorkloadTrace cohort_trace(std::uint64_t seed) {
  arvis::WorkloadTrace trace;
  trace.events.reserve(kCohortSessions);
  arvis::Rng rng(seed);
  for (std::size_t i = 0; i < kCohortSessions; ++i) {
    // The scenario generators' default QoS mix: 20% best-effort, 10% premium.
    const double u = rng.next_double();
    const QosClass qos = u < 0.2   ? QosClass::kBestEffort
                         : u < 0.3 ? QosClass::kPremium
                                   : QosClass::kStandard;
    arvis::TraceEvent event;
    event.t_arrive = 0;
    event.duration = kCohortHorizon;
    event.qos = qos;
    event.weight = arvis::default_qos_weight(qos);
    trace.events.push_back(event);
  }
  add_abandonment(trace, kCohortAbandon, seed);
  return trace;
}

arvis::WorkloadTrace churn_trace(arvis::ScenarioKind kind,
                                 const arvis::ScenarioConfig& config,
                                 double abandon) {
  arvis::WorkloadTrace trace = arvis::make_scenario(kind, config)->generate();
  add_abandonment(trace, abandon, config.seed);
  return trace;
}

/// Per-link constant capacity holding `sessions` cheapest-depth sessions
/// across the cluster at the admission target.
double link_capacity(const arvis::FrameStatsCache& profile,
                     const arvis::ReplayConfig& config, double sessions) {
  const double load =
      arvis::AdmissionController::cheapest_depth_load(profile, kCandidates);
  return sessions / static_cast<double>(kLinks) * load /
         config.cluster.serving.admission.utilization_target;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"cohort", "flash_churn",
                                              "handover_chaos"};
  return names;
}

arvis::FrameStatsCache build_profile() {
  return arvis::FrameStatsCache(*arvis::open_test_subject(17), 8, 16);
}

arvis::WorkloadTrace generate_trace(const std::string& workload,
                                    std::uint64_t seed) {
  if (workload == "cohort") return cohort_trace(seed);
  arvis::ScenarioConfig config;
  config.seed = seed;
  if (workload == "flash_churn") {
    config.horizon = kFlashHorizon;
    config.mean_duration = kFlashMeanDuration;
    config.max_duration = kFlashMaxDuration;
    config.base_rate =
        kFlashPressure * kFlashCapacitySessions / kFlashMeanDuration;
    config.spike_duration = kFlashSpikeSlots;
    config.spike_multiplier = kFlashSpikeMultiplier;
    return churn_trace(arvis::ScenarioKind::kFlashCrowd, config,
                       kFlashAbandon);
  }
  if (workload == "handover_chaos") {
    config.horizon = kChaosHorizon;
    config.mean_duration = kChaosMeanDuration;
    config.max_duration = kChaosMaxDuration;
    config.base_rate =
        kChaosPressure * kChaosCapacitySessions / kChaosMeanDuration;
    return churn_trace(arvis::ScenarioKind::kPoisson, config, kChaosAbandon);
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

Setup make_setup(const std::string& workload, std::uint64_t seed,
                 const arvis::FrameStatsCache& profile) {
  Setup setup;
  arvis::ReplayConfig& config = setup.config;
  arvis::ServingConfig& serving = config.cluster.serving;
  // Shipped defaults: one decide thread, flight recorder on (the caller
  // points it at its own ring), counters and spans off, snapshots every 50
  // slots.
  serving.threads = 1;
  serving.candidates = kCandidates;
  serving.v = arvis::calibrate_streaming_v(profile, kCandidates,
                                           4.0 * profile.workload(0).bytes(5));
  config.driver.snapshot_period = 50;

  double sessions = 0.0;
  if (workload == "cohort") {
    serving.steps = kCohortHorizon;
    config.cluster.placement = arvis::PlacementPolicy::kLeastLoaded;
    // Room for every session plus one per link: nobody is refused.
    sessions = static_cast<double>(kCohortSessions + kLinks);
  } else if (workload == "flash_churn") {
    serving.steps = kFlashHorizon;
    config.cluster.placement = arvis::PlacementPolicy::kRoundRobin;
    sessions = kFlashCapacitySessions;
  } else if (workload == "handover_chaos") {
    serving.steps = kChaosHorizon;
    serving.policy = arvis::SchedulerPolicy::kDeficitRoundRobin;
    config.cluster.placement = arvis::PlacementPolicy::kLeastLoaded;
    config.cluster.handover.enabled = true;
    config.cluster.handover.rebalance_on_departure = true;
    config.driver.retry.enabled = true;
    config.driver.retry.seed = seed;
    arvis::FaultPlan walk;
    walk.handover_walk(seed, kLinks, /*walkers=*/3, /*at=*/100,
                       /*horizon=*/kChaosHorizon - 200, /*dwell_slots=*/60,
                       /*floor_scale=*/0.6, /*delay=*/2.0);
    arvis::FaultPlan outage;
    outage.outage(static_cast<std::uint32_t>(seed % kLinks),
                  kChaosHorizon / 2, /*duration=*/80);
    config.faults = walk.merge(outage);
    sessions = kChaosCapacitySessions;
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  setup.channels.assign(kLinks, arvis::ConstantChannel(
                                    link_capacity(profile, config, sessions)));
  return setup;
}

}  // namespace perfbench
