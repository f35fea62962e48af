// Thread-stress subset (ctest -L thread; the TSan preset runs exactly these).
//
// ParallelExecutor has one caller, replicate(), which fans whole seeds out
// across cores. Three contracts under deliberate contention:
//   1. replicate() at 2, 4 and 8 threads stays bit-for-bit identical to the
//      serial run: every seed builds its own experiment, and traces are
//      aggregated in seed order, so the fan-out width must not change a bit.
//   2. TelemetryCounter::add is safe to call concurrently (relaxed atomic):
//      hammered from every worker, the sum is exact, never torn or dropped.
//   3. The executor's own machinery (claim loop, exception funnel, pool
//      reuse) survives back-to-back jobs under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "datasets/catalog.hpp"
#include "lyapunov/depth_controller.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/executor.hpp"
#include "serving/telemetry/registry.hpp"
#include "sim/replication.hpp"

namespace arvis {
namespace {

const FrameStatsCache& stress_cache() {
  static const FrameStatsCache cache(*open_test_subject(71), 8, 8);
  return cache;
}

TEST(ConcurrencyStressTest, ParallelReplicateMatchesSerialAcrossThreadCounts) {
  const auto factory = [](std::uint64_t seed) {
    StreamingConfig config;
    config.steps = 64;
    config.candidates = {3, 4, 5, 6};
    LyapunovDepthController controller(calibrate_streaming_v(
        stress_cache(), config.candidates,
        3.0 * stress_cache().workload(0).bytes(4)));
    GilbertElliottChannel channel(stress_cache().workload(0).bytes(4) * 1.3,
                                  0.4, 0.1, 0.3, Rng(seed));
    return run_streaming_session(config, stress_cache(), controller, channel);
  };

  const ReplicationSummary serial = replicate(10, factory, 1);
  for (const std::size_t threads : {2UL, 4UL, 8UL}) {
    const ReplicationSummary parallel = replicate(10, factory, threads);
    EXPECT_EQ(serial.replicates, parallel.replicates) << threads;
    EXPECT_EQ(serial.quality.mean, parallel.quality.mean) << threads;
    EXPECT_EQ(serial.quality.ci_half_width, parallel.quality.ci_half_width)
        << threads;
    EXPECT_EQ(serial.backlog.mean, parallel.backlog.mean) << threads;
    EXPECT_EQ(serial.backlog.min, parallel.backlog.min) << threads;
    EXPECT_EQ(serial.backlog.max, parallel.backlog.max) << threads;
    EXPECT_EQ(serial.mean_depth.mean, parallel.mean_depth.mean) << threads;
    EXPECT_EQ(serial.divergent_count, parallel.divergent_count) << threads;
  }
}

TEST(ConcurrencyStressTest, ConcurrentCounterAddsAreExact) {
  TelemetryRegistry registry;
  // Handles registered up front (the registry itself is single-threaded);
  // only add() is exercised concurrently, per the instrument contract.
  TelemetryCounter& hits = registry.counter("stress/hits");
  TelemetryCounter& bytes = registry.counter("stress/bytes");
  const std::size_t iterations = 200'000;
  for (const std::size_t threads : {2UL, 4UL, 8UL}) {
    const std::uint64_t hits_before = hits.value();
    const std::uint64_t bytes_before = bytes.value();
    ParallelExecutor executor(threads);
    executor.parallel_for(iterations, [&](std::size_t i) {
      hits.add();
      bytes.add(i % 7 + 1);
    });
    std::uint64_t expect_bytes = 0;
    for (std::size_t i = 0; i < iterations; ++i) expect_bytes += i % 7 + 1;
    EXPECT_EQ(hits.value() - hits_before, iterations) << threads;
    EXPECT_EQ(bytes.value() - bytes_before, expect_bytes) << threads;
  }
}

TEST(ConcurrencyStressTest, ExecutorSurvivesContendedReuseAndExceptions) {
  ParallelExecutor executor(8);
  std::vector<std::atomic<std::uint32_t>> hits(4096);
  for (auto& h : hits) h = 0;
  // Many small back-to-back jobs: the pool's handoff (claim counter,
  // wakeup, completion barrier) is the contended surface, not the work.
  for (int round = 0; round < 50; ++round) {
    executor.parallel_for(hits.size(),
                          [&](std::size_t i) { ++hits[i]; });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 50U);

  // A throwing job must drain, propagate once, and leave the pool usable.
  std::atomic<std::uint32_t> ran{0};
  EXPECT_THROW(executor.parallel_for(512,
                                     [&](std::size_t i) {
                                       ++ran;
                                       if (i % 128 == 13) {
                                         throw std::runtime_error("boom");
                                       }
                                     }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 512U);
  executor.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 51U);
}

}  // namespace
}  // namespace arvis
