// TimingBackend: a ServingBackend decorator that forwards every virtual call
// to the wrapped backend unchanged and times the calls that do runtime work,
// so the benchmark can split EventLoop::run into the loop's own time and
// the time spent inside the cluster — without any instrumentation in src/.
// It also cuts EventLoop::run into one lap per executed slot, so repetitions
// of one input can be compared slot by slot.
//
// ServingBackend::step_slots is non-virtual and calls step_slot() through
// `this`, so burst stepping reaches the decorator slot by slot and every
// executed slot is timed individually.
//
// Cheap state queries (slot, active_count, next_pending_arrival_slot, the
// retry feed) and idle fast-forwards are forwarded untimed: two clock reads
// would cost more than the call, so their time stays in the loop's self time.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "serving/driver/event_loop.hpp"

namespace perfbench {

/// Accumulated wall time (seconds) and call counts per backend call class.
struct BackendCallTimes {
  double submit_s = 0.0;
  double step_s = 0.0;
  double close_s = 0.0;
  /// Fault verbs plus fault-plane sampling.
  double fault_s = 0.0;
  /// Snapshot metric and SLO sampling.
  double sample_s = 0.0;
  std::size_t submit_calls = 0;
  /// Wall time of every executed step_slot, in execution order (ns).
  std::vector<double> step_ns;
  /// Wall time of every lap of EventLoop::run, in execution order (ns): lap
  /// i runs from the end of executed slot i - 1 (or the start of the run)
  /// to the end of executed slot i, so it holds slot i's step plus the loop
  /// work and backend calls issued before it.
  std::vector<double> lap_ns;
  /// Wall time of EventLoop::run after the last executed slot (s).
  double tail_s = 0.0;

  [[nodiscard]] double total_s() const {
    return submit_s + step_s + close_s + fault_s + sample_s;
  }
};

class TimingBackend final : public arvis::ServingBackend {
 public:
  /// With `time_all` false only step_slot is timed (the plain run needs
  /// per-slot times and nothing else); the other calls forward untimed.
  TimingBackend(arvis::ServingBackend& inner, bool time_all,
                std::size_t expected_slots)
      : inner_(&inner), time_all_(time_all) {
    times_.step_ns.reserve(expected_slots);
    times_.lap_ns.reserve(expected_slots);
  }

  /// Starts the first lap; call it where EventLoop::run starts.
  void start_laps(std::chrono::steady_clock::time_point run_start) noexcept {
    lap_start_ = run_start;
  }
  /// Records the time since the last lap as the tail; call it where
  /// EventLoop::run returns.
  void stop_laps(std::chrono::steady_clock::time_point run_end) noexcept {
    times_.tail_s =
        std::chrono::duration<double>(run_end - lap_start_).count();
  }

  [[nodiscard]] const BackendCallTimes& times() const noexcept {
    return times_;
  }

  [[nodiscard]] std::size_t slot() const override { return inner_->slot(); }
  [[nodiscard]] std::size_t active_count() const override {
    return inner_->active_count();
  }
  [[nodiscard]] std::size_t next_pending_arrival_slot() const override {
    return inner_->next_pending_arrival_slot();
  }
  std::size_t submit(const arvis::SessionSpec& spec) override {
    const Timed timed(time_all_, times_.submit_s);
    ++times_.submit_calls;
    return inner_->submit(spec);
  }
  void step_slot() override {
    const auto start = Clock::now();
    inner_->step_slot();
    const auto end = Clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(end - start).count();
    times_.step_ns.push_back(ns);
    times_.step_s += ns * 1e-9;
    times_.lap_ns.push_back(
        std::chrono::duration<double, std::nano>(end - lap_start_).count());
    lap_start_ = end;
  }
  bool close_session(std::size_t session_id) override {
    const Timed timed(time_all_, times_.close_s);
    return inner_->close_session(session_id);
  }
  void skip_idle_slots(std::size_t slots) override {
    inner_->skip_idle_slots(slots);
  }
  void sample(arvis::MetricsSnapshot& out,
              std::vector<double>& per_link_used) const override {
    const Timed timed(time_all_, times_.sample_s);
    inner_->sample(out, per_link_used);
  }
  void sample_slo(arvis::SloObservation& observation) override {
    const Timed timed(time_all_, times_.sample_s);
    inner_->sample_slo(observation);
  }
  bool apply_link_state(std::size_t link, bool down) override {
    const Timed timed(time_all_, times_.fault_s);
    return inner_->apply_link_state(link, down);
  }
  bool apply_capacity_scale(std::size_t link, double scale) override {
    const Timed timed(time_all_, times_.fault_s);
    return inner_->apply_capacity_scale(link, scale);
  }
  bool apply_link_degrade(std::size_t link, double scale,
                          double delay) override {
    const Timed timed(time_all_, times_.fault_s);
    return inner_->apply_link_degrade(link, scale, delay);
  }
  [[nodiscard]] arvis::FaultPlaneSample sample_fault_plane() const override {
    const Timed timed(time_all_, times_.fault_s);
    return inner_->sample_fault_plane();
  }
  void enable_retry_feed() override { inner_->enable_retry_feed(); }
  [[nodiscard]] bool retry_feed_pending() const override {
    return inner_->retry_feed_pending();
  }
  void take_retry_feed(std::vector<arvis::RetrySeed>& out) override {
    inner_->take_retry_feed(out);
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Adds the scope's wall time to `acc` when `on`.
  class Timed {
   public:
    Timed(bool on, double& acc) noexcept : acc_(on ? &acc : nullptr) {
      if (acc_ != nullptr) start_ = Clock::now();
    }
    ~Timed() {
      if (acc_ != nullptr) {
        *acc_ += std::chrono::duration<double>(Clock::now() - start_).count();
      }
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    double* acc_;
    Clock::time_point start_{};
  };

  arvis::ServingBackend* inner_;
  bool time_all_;
  Clock::time_point lap_start_{};
  // Mutable: the const sampling calls are timed too.
  mutable BackendCallTimes times_;
};

}  // namespace perfbench
