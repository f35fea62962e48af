// e2e_replay: the end-to-end replay benchmark.
//
//   e2e_replay --workload <cohort|flash_churn|handover_chaos> --seed <n>
//              --seconds <s> --trace <0|1> [--git-sha <sha>]
//
// One repetition generates the workload's trace from the seed and replays it
// through the public EventLoop -> ClusterBackend -> EdgeCluster path, then
// runs EdgeCluster::finish(). Repetitions repeat until --seconds have passed
// (at least one warm-up plus kMinReps of each kind); the warm-up stays out of
// the reported timings.
//
// --trace 0 is the plain run (shipped defaults: counters and spans off) and
// prints the end-to-end metrics. --trace 1 alternates plain and traced
// repetitions (TelemetryMode::kFullTrace plus a timing decorator around the
// backend) and prints the per-layer metrics; see README.md for every metric.
//
// Every repetition checks the runtime's books, and the run checks that all
// repetitions of the seed agree bit for bit, that tracing changes no output,
// and that a decorated replay reproduces replay_trace's per-session outcomes.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit status is 0 only when every check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "serving/driver/replay.hpp"
#include "serving/telemetry/flight_recorder.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/tracer.hpp"
#include "timing_backend.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::BackendCallTimes;

constexpr std::size_t kMinReps = 3;  // timed repetitions per kind
constexpr std::size_t kMaxReps = 200;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double current_rss_mib() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0, resident_pages = 0.0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Order-sensitive 64-bit digest of everything a run outputs, so two runs
/// can be compared bit for bit without holding both in memory.
class Digest {
 public:
  template <class T>
    requires std::is_integral_v<T>
  void add(T value) noexcept {
    mix(static_cast<std::uint64_t>(value));
  }
  void add(double value) noexcept { mix(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void mix(std::uint64_t word) noexcept {
    h_ = std::rotl(h_ ^ (word * 0x9E3779B97F4A7C15ULL), 31) *
         0xC2B2AE3D27D4EB4FULL;
  }

  std::uint64_t h_ = 0x243F6A8885A308D3ULL;
};

void add_outcome(Digest& d, const arvis::ClusterSessionOutcome& o) {
  d.add(o.link);
  d.add(o.spilled);
  d.add(o.arrived);
  d.add(o.failovers);
  d.add(o.migrations);
  d.add(o.fault_evicted);
  const arvis::SessionOutcome& s = o.session;
  d.add(s.id);
  d.add(s.admitted);
  d.add(s.arrival_slot);
  d.add(s.departure_slot);
  d.add(s.weight);
  d.add(s.max_sustainable_depth);
  d.add(s.has_summary);
  const arvis::TraceSummary& m = s.summary;
  for (double v : {m.time_average_quality, m.time_average_backlog,
                   m.final_backlog, m.peak_backlog, m.mean_depth,
                   m.mean_arrivals, m.mean_service, m.stability.tail_slope,
                   m.stability.tail_mean, m.stability.peak,
                   m.stability.time_average}) {
    d.add(v);
  }
  d.add(m.partial);
  d.add(static_cast<int>(m.stability.verdict));
  d.add(s.trace.size());
  for (const arvis::StepRecord& r : s.trace.steps()) {
    d.add(r.t);
    d.add(r.depth);
    for (double v : {r.arrivals, r.service, r.backlog_begin, r.backlog_end,
                     r.quality}) {
      d.add(v);
    }
  }
}

/// A run's outputs that must repeat exactly: named work counts and
/// deterministic results (doubles by bit pattern). Compared entry by entry.
using Fingerprint = std::vector<std::pair<std::string, std::uint64_t>>;

/// The first entry where `a` and `b` differ ("" when they agree on every
/// entry both carry — a traced fingerprint carries extra counters).
std::string first_difference(const Fingerprint& a, const Fingerprint& b) {
  for (const auto& [name, value] : a) {
    for (const auto& [other_name, other_value] : b) {
      if (other_name == name && other_value != value) return name;
    }
  }
  return "";
}

/// What one replay produced, plus the output checks' verdicts.
struct Outputs {
  double mean_quality = 0.0;
  double mean_backlog_bytes = 0.0;
  double session_ok_ratio = 0.0;
  std::size_t sessions_attempted = 0;
  std::size_t sessions_failed = 0;
  double session_slots = 0.0;
  std::size_t sessions = 0;
  double accept_ratio = 0.0;
  std::size_t events = 0;
  std::uint64_t flight_events = 0;
  Fingerprint fingerprint;
  std::vector<std::string> failures;
};

/// Summarizes a finished replay and runs the book checks on it.
Outputs summarize(const arvis::WorkloadTrace& trace,
                  const arvis::ClusterResult& result,
                  const arvis::DriverReport& report,
                  const arvis::FlightRecorder& flight) {
  Outputs out;
  const arvis::ClusterMetrics& m = result.metrics;
  auto check = [&out](bool ok, const std::string& what) {
    if (!ok) out.failures.push_back(what);
  };

  check(m.failover_displaced ==
            m.failover_replaced + m.fault_evicted + m.fault_closed,
        "failover books: displaced != replaced + evicted + closed");
  check(m.migrations_requested ==
            m.migrations_completed + m.migrations_aborted,
        "migration books: requested != completed + aborted");
  check(report.migrations_requested == m.migrations_requested &&
            report.migrations_completed == m.migrations_completed &&
            report.migrations_aborted == m.migrations_aborted,
        "migration books: driver report disagrees with the cluster");

  // Per-QoS tier books over the trace rows (retry generations carry fresh
  // ids past the rows and count only in the fleet totals).
  std::array<arvis::QosOutcome, arvis::kQosClassCount> tiers{};
  std::size_t admitted = 0, refused = 0, summarized = 0;
  Digest digest;
  for (std::size_t i = 0; i < result.sessions.size(); ++i) {
    const arvis::ClusterSessionOutcome& o = result.sessions[i];
    add_outcome(digest, o);
    out.session_slots += static_cast<double>(o.session.trace.size());
    if (o.session.has_summary) ++summarized;
    if (!o.arrived) continue;
    ++out.sessions_attempted;
    const bool was_refused = o.link < 0;
    if (was_refused || o.fault_evicted) ++out.sessions_failed;
    if (o.session.admitted) ++admitted;
    if (was_refused) ++refused;
    if (i < trace.events.size()) {
      arvis::QosOutcome& tier =
          tiers[static_cast<std::size_t>(trace.events[i].qos)];
      ++tier.arrivals;
      if (o.session.admitted) ++tier.admitted;
      if (was_refused) ++tier.rejected;
    }
  }
  for (std::size_t q = 0; q < arvis::kQosClassCount; ++q) {
    check(tiers[q].arrivals == tiers[q].admitted + tiers[q].rejected,
          std::string("QoS books: ") +
              arvis::to_string(static_cast<arvis::QosClass>(q)) +
              " arrivals != admitted + rejected");
  }
  check(refused == m.placement_rejects,
        "QoS books: refused sessions != cluster placement rejects");
  check(admitted == m.fleet.sessions_admitted,
        "QoS books: admitted sessions != fleet admitted");

  std::size_t attempts = 0, accepts = 0;
  for (const arvis::AdmissionStats& a : m.per_link_admission) {
    attempts += a.attempts;
    accepts += a.accepted;
  }
  out.sessions = result.sessions.size();
  out.accept_ratio = ratio(static_cast<double>(accepts),
                           static_cast<double>(attempts));
  out.mean_quality = m.fleet.mean_quality;
  out.mean_backlog_bytes = ratio(m.fleet.total_time_average_backlog,
                                 static_cast<double>(summarized));
  out.session_ok_ratio =
      ratio(static_cast<double>(out.sessions_attempted - out.sessions_failed),
            static_cast<double>(out.sessions_attempted));
  out.events = report.arrivals_injected + report.departure_markers +
               report.closes_applied + report.closes_ignored +
               report.faults_applied + report.faults_ignored +
               report.snapshots.size();
  out.flight_events = flight.recorded_total();

  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  out.fingerprint = {
      {"outcome_digest", digest.value()},
      {"mean_quality", bits(out.mean_quality)},
      {"mean_backlog_bytes", bits(out.mean_backlog_bytes)},
      {"session_ok_ratio", bits(out.session_ok_ratio)},
      {"sessions_attempted", out.sessions_attempted},
      {"sessions_failed", out.sessions_failed},
      {"events", out.events},
      {"slots_executed", report.slots_executed},
      {"slots_skipped", report.slots_skipped},
      {"retries_scheduled", report.retries_scheduled},
      {"retries_abandoned", report.retries_abandoned},
      {"spills", m.spills},
      {"placement_rejects", m.placement_rejects},
      {"failover_displaced", m.failover_displaced},
      {"migrations_completed", m.migrations_completed},
      {"migrations_aborted", m.migrations_aborted},
      {"admission_attempts", attempts},
      {"flight_events", out.flight_events},
  };
  return out;
}

/// Traced-only work counts, read from the run's registry.
struct LayerCounts {
  double decide_groups = 0.0;
  double decide_calls = 0.0;
  double active_session_slots = 0.0;
  double decide_reuses = 0.0;
  double decide_rebuilds = 0.0;
  double sched_fast = 0.0;
  double sched_generic = 0.0;
};

LayerCounts read_counts(const arvis::TelemetryRegistry& registry) {
  LayerCounts c;
  auto counter = [&](const std::string& name) {
    const arvis::TelemetryCounter* found = registry.find_counter(name);
    return found != nullptr ? static_cast<double>(found->value()) : 0.0;
  };
  for (std::size_t k = 0; k < perfbench::kLinks; ++k) {
    const std::string prefix = "link" + std::to_string(k) + "/";
    if (const auto* h = registry.find_histogram(prefix + "decide_groups")) {
      c.decide_groups += h->sum();
      c.decide_calls += static_cast<double>(h->count());
    }
    if (const auto* h = registry.find_histogram(prefix + "active_sessions")) {
      c.active_session_slots += h->sum();
    }
    c.decide_reuses += counter(prefix + "decide_group_reuses");
    c.decide_rebuilds += counter(prefix + "decide_group_rebuilds");
    c.sched_fast += counter(prefix + "scheduler_fast_path");
    c.sched_generic += counter(prefix + "scheduler_generic");
  }
  return c;
}

/// One repetition: set-up, EventLoop::run, EdgeCluster::finish, checks.
struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  double build_s = 0.0;
  double generate_s = 0.0;
  double schedule_s = 0.0;
  std::size_t rows = 0;
  double rss_setup_mib = 0.0;
  double rss_peak_mib = 0.0;
  double run_s = 0.0;
  double finish_s = 0.0;
  BackendCallTimes calls;
  double step_p50_ms = 0.0;
  double step_p99_ms = 0.0;
  std::array<double, arvis::kPhaseCount> span_s{};
  arvis::DriverReport report;
  arvis::ClusterMetrics metrics;
  LayerCounts counts;
  Outputs out;

  [[nodiscard]] double ns_per_session_slot() const {
    return ratio((run_s + finish_s) * 1e9, out.session_slots);
  }
  [[nodiscard]] double span(arvis::Phase phase) const {
    return span_s[static_cast<std::size_t>(phase)];
  }
  /// Step time outside the slot-phase spans: handover evaluation, the
  /// per-slot fault plane, capacity draws and the slot's metric roll-up.
  [[nodiscard]] double step_other_s() const {
    using arvis::Phase;
    return calls.step_s - span(Phase::kBeginSlot) - span(Phase::kPlace) -
           span(Phase::kDecide) - span(Phase::kSchedule) -
           span(Phase::kDrain);
  }
  /// EventLoop::run time spent outside backend calls.
  [[nodiscard]] double loop_self_s() const {
    return run_s - calls.total_s();
  }
  /// Share of run + finish wall time that no named layer metric covers.
  [[nodiscard]] double unattributed_share() const {
    using arvis::Phase;
    const double total = run_s + finish_s;
    const double named =
        loop_self_s() + calls.submit_s + calls.close_s + calls.fault_s +
        calls.sample_s + span(Phase::kBeginSlot) + span(Phase::kPlace) +
        span(Phase::kDecide) + span(Phase::kSchedule) + span(Phase::kDrain) +
        step_other_s() + finish_s;
    return ratio(std::abs(total - named), total);
  }
};

/// Last slot the replay can reach: every stay, every fault, plus room for
/// the retry loop's backoff.
std::size_t slot_bound(const arvis::WorkloadTrace& trace,
                       const arvis::ReplayConfig& config) {
  std::size_t last = 0;
  for (const arvis::TraceEvent& e : trace.events) {
    last = std::max(last, e.t_arrive + e.duration);
  }
  for (const arvis::FaultEvent& f : config.faults.events) {
    last = std::max(last, f.slot);
  }
  return last + 1024;
}

Rep run_rep(const std::string& workload, std::uint64_t seed, bool traced) {
  Rep rep;
  rep.traced = traced;
  const Clock::time_point start = Clock::now();

  Clock::time_point t = Clock::now();
  const arvis::FrameStatsCache profile = perfbench::build_profile();
  rep.build_s = since(t);

  t = Clock::now();
  const arvis::WorkloadTrace trace =
      perfbench::generate_trace(workload, seed);
  rep.generate_s = since(t);
  rep.rows = trace.events.size();

  perfbench::Setup setup = perfbench::make_setup(workload, seed, profile);
  arvis::ReplayConfig& config = setup.config;
  const std::vector<const arvis::FrameStatsCache*> profiles{&profile};
  std::vector<arvis::ChannelModel*> channels;
  for (auto& c : setup.channels) channels.push_back(&c);
  const std::vector<double> means =
      arvis::validated_channel_means(channels, "e2e_replay");
  if (const arvis::Status s =
          arvis::validate_workload_trace(trace, profiles.size());
      !s.ok()) {
    throw std::runtime_error("invalid trace: " + s.message());
  }
  if (const arvis::Status s = arvis::validate_fault_plan(config.faults,
                                                          means.size());
      !s.ok()) {
    throw std::runtime_error("invalid fault plan: " + s.message());
  }

  const std::size_t slots = slot_bound(trace, config);
  arvis::FlightRecorder flight;  // flight recorder on, caller-owned ring
  arvis::TelemetryRegistry registry;
  arvis::TracerConfig tracer_config;
  tracer_config.capacity =
      traced ? slots * (4 * perfbench::kLinks + 3) + 4096 : 1;
  arvis::PhaseTracer tracer(tracer_config);
  for (arvis::TelemetryConfig* tel :
       {&config.cluster.serving.telemetry, &config.driver.telemetry}) {
    tel->flight = &flight;
    if (traced) {
      tel->mode = arvis::TelemetryMode::kFullTrace;
      tel->registry = &registry;
      tel->tracer = &tracer;
    }
  }

  arvis::EdgeCluster cluster(config.cluster, means);
  arvis::ClusterBackend inner(cluster, channels);
  perfbench::TimingBackend backend(inner, traced, slots);
  arvis::EventLoop loop(config.driver, backend);

  // The same schedule burst replay_trace issues, in the same order.
  t = Clock::now();
  loop.reserve(trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const arvis::TraceEvent& event = trace.events[i];
    const arvis::SessionSpec spec =
        arvis::trace_session_spec(event, i, profiles);
    loop.schedule_arrival(event.t_arrive, spec);
    if (spec.departure_slot != arvis::kNeverDeparts) {
      loop.schedule_departure_marker(spec.departure_slot);
    }
    if (event.t_close != 0) loop.schedule_close(event.t_close, i);
  }
  arvis::FaultPlan trace_faults;
  trace_faults.events = trace.faults;
  loop.schedule_fault_plan(trace_faults);
  loop.schedule_fault_plan(config.faults);
  rep.schedule_s = since(t);
  rep.setup_s = since(start);
  rep.rss_setup_mib = current_rss_mib();

  t = Clock::now();
  backend.start_laps(t);
  rep.report = loop.run();
  const Clock::time_point run_end = Clock::now();
  backend.stop_laps(run_end);
  rep.run_s = std::chrono::duration<double>(run_end - t).count();

  std::vector<std::string> pre_finish;
  if (const arvis::Status s = cluster.validate_stores(); !s.ok()) {
    pre_finish.push_back("validate_stores before finish: " + s.message());
  }
  t = Clock::now();
  const arvis::ClusterResult result = cluster.finish();
  rep.finish_s = since(t);
  rep.rss_peak_mib = peak_rss_mib();

  rep.calls = backend.times();
  rep.step_p50_ms = median(rep.calls.step_ns) * 1e-6;
  rep.step_p99_ms = percentile(rep.calls.step_ns, 99.0) * 1e-6;
  rep.metrics = result.metrics;
  rep.out = summarize(trace, result, rep.report, flight);
  rep.out.fingerprint.emplace_back("laps", rep.calls.lap_ns.size());
  rep.out.failures.insert(rep.out.failures.begin(), pre_finish.begin(),
                          pre_finish.end());
  if (traced) {
    for (std::size_t i = 0; i < tracer.size(); ++i) {
      const arvis::SpanRecord& span = tracer.at(i);
      rep.span_s[static_cast<std::size_t>(span.phase)] +=
          static_cast<double>(span.dur_ns) * 1e-9;
    }
    // Spans nest inside the timed step_slot calls, which nest inside run:
    // neither remainder can be negative, and the named layers must cover
    // run + finish.
    if (rep.step_other_s() < 0.0 || rep.loop_self_s() < 0.0 ||
        rep.unattributed_share() > 0.05) {
      rep.out.failures.push_back("attribution: layer times do not add up");
    }
    if (tracer.dropped() != 0) {
      rep.out.failures.push_back("tracer dropped " +
                                 std::to_string(tracer.dropped()) + " spans");
    }
    rep.counts = read_counts(registry);
    const LayerCounts& c = rep.counts;
    rep.out.fingerprint.insert(
        rep.out.fingerprint.end(),
        {{"decide_groups", static_cast<std::uint64_t>(c.decide_groups)},
         {"decide_calls", static_cast<std::uint64_t>(c.decide_calls)},
         {"decide_reuses", static_cast<std::uint64_t>(c.decide_reuses)},
         {"decide_rebuilds", static_cast<std::uint64_t>(c.decide_rebuilds)},
         {"scheduler_fast_path", static_cast<std::uint64_t>(c.sched_fast)},
         {"scheduler_generic", static_cast<std::uint64_t>(c.sched_generic)},
         {"spans_recorded", tracer.recorded_total()}});
  }
  return rep;
}

/// replay_trace on the same trace and configuration: the decorated path
/// must reproduce its outputs bit for bit.
Outputs run_oracle(const std::string& workload, std::uint64_t seed) {
  const arvis::FrameStatsCache profile = perfbench::build_profile();
  const arvis::WorkloadTrace trace =
      perfbench::generate_trace(workload, seed);
  perfbench::Setup setup = perfbench::make_setup(workload, seed, profile);
  arvis::FlightRecorder flight;
  setup.config.cluster.serving.telemetry.flight = &flight;
  setup.config.driver.telemetry.flight = &flight;
  std::vector<arvis::ChannelModel*> channels;
  for (auto& c : setup.channels) channels.push_back(&c);
  const arvis::ReplayResult result =
      arvis::replay_trace(setup.config, trace, {&profile}, channels);
  return summarize(trace, result.cluster, result.report, flight);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string git_sha = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = std::stoi(value);
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else {
      return false;
    }
  }
  const auto& names = perfbench::workload_names();
  return argc % 2 == 1 &&
         std::find(names.begin(), names.end(), args.workload) != names.end() &&
         args.seconds > 0.0 && (args.trace == 0 || args.trace == 1);
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string provenance_json(const Args& args) {
  return "{\"git_sha\":" + json_string(args.git_sha) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu_model\":" + json_string(cpu_model()) +
         ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
         ",\"cxx_flags\":" + json_string(PERFBENCH_CXX_FLAGS) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"workload\":" + json_string(args.workload) +
         ",\"seed\":" + std::to_string(args.seed) +
         ",\"trace\":" + std::to_string(args.trace) + "}";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

template <class Fn>  // Fn(const Rep&) -> double
std::vector<double> values_of(const std::vector<const Rep*>& reps, Fn fn) {
  std::vector<double> values;
  values.reserve(reps.size());
  for (const Rep* rep : reps) values.push_back(fn(*rep));
  return values;
}

template <class Fn>
double median_of(const std::vector<const Rep*>& reps, Fn fn) {
  return median(values_of(reps, fn));
}

/// Best repetition. Interference on a shared host only ever adds time, so
/// the fastest observation is the steadiest estimate of the code's own cost.
template <class Fn>
double min_of(const std::vector<const Rep*>& reps, Fn fn) {
  const std::vector<double> values = values_of(reps, fn);
  return *std::min_element(values.begin(), values.end());
}

/// Entry i is the fastest observation of executed slot i's lap or step time
/// over `reps`. Repetitions replay one input slot for slot (the determinism
/// check pins their lap counts), so slot i does the same work in each.
std::vector<double> fastest_per_slot(
    const std::vector<const Rep*>& reps,
    std::vector<double> BackendCallTimes::*series) {
  std::vector<double> best = reps.front()->calls.*series;
  for (const Rep* rep : reps) {
    const std::vector<double>& values = rep->calls.*series;
    best.resize(std::min(best.size(), values.size()));
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], values[i]);
    }
  }
  return best;
}

/// Run + finish per session·slot, each slot's lap, the run's tail and finish
/// taken at their fastest over `reps`. Interference on a shared host comes
/// and goes within a repetition, so a slot-by-slot minimum finds the code's
/// own cost in runs where no whole repetition escaped it.
double best_ns_per_session_slot(const std::vector<const Rep*>& reps) {
  const std::vector<double> laps =
      fastest_per_slot(reps, &BackendCallTimes::lap_ns);
  const double rest_s =
      min_of(reps, [](const Rep& r) { return r.calls.tail_s; }) +
      min_of(reps, [](const Rep& r) { return r.finish_s; });
  return ratio(std::accumulate(laps.begin(), laps.end(), 0.0) + rest_s * 1e9,
               reps.front()->out.session_slots);
}

/// Median over executed slots of each slot's fastest step time (ms).
double best_slot_ms_p50(const std::vector<const Rep*>& reps) {
  return median(fastest_per_slot(reps, &BackendCallTimes::step_ns)) * 1e-6;
}

std::vector<Metric> end_to_end_metrics(const std::vector<const Rep*>& plain,
                                       double peak_rss) {
  const Outputs& out = plain.front()->out;
  return {
      {"setup_s", min_of(plain, [](const Rep& r) { return r.setup_s; }), "s"},
      {"ns_per_session_slot", best_ns_per_session_slot(plain), "ns"},
      {"slot_ms_p50", best_slot_ms_p50(plain), "ms"},
      {"peak_rss_mib", peak_rss, "MiB"},
      {"mean_quality", out.mean_quality, "quality"},
      {"mean_backlog_bytes", out.mean_backlog_bytes, "bytes"},
      {"session_ok_ratio", out.session_ok_ratio, "ratio"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<const Rep*>& traced,
                                      const std::vector<const Rep*>& plain,
                                      const Rep& fresh) {
  using arvis::Phase;
  auto med = [&traced](auto fn) { return median_of(traced, fn); };

  const Rep& first = *traced.front();  // work counts repeat exactly
  const LayerCounts& c = first.counts;
  const arvis::DriverReport& report = first.report;
  const arvis::ClusterMetrics& m = first.metrics;
  const double plain_ns = best_ns_per_session_slot(plain);
  const double traced_ns = best_ns_per_session_slot(traced);

  return {
      {"frame_stats_cache.build_s", med([](const Rep& r) { return r.build_s; }),
       "s"},
      {"scenario.generate_s", med([](const Rep& r) { return r.generate_s; }),
       "s"},
      {"scenario.rows", static_cast<double>(first.rows), "count"},
      {"event_loop.schedule_s", med([](const Rep& r) { return r.schedule_s; }),
       "s"},
      {"event_loop.run_s", med([](const Rep& r) { return r.run_s; }), "s"},
      {"event_loop.self_s",
       med([](const Rep& r) { return r.loop_self_s(); }), "s"},
      {"event_loop.events", static_cast<double>(first.out.events), "count"},
      {"event_loop.slots_executed", static_cast<double>(report.slots_executed),
       "count"},
      {"event_loop.slots_skipped", static_cast<double>(report.slots_skipped),
       "count"},
      {"event_loop.retries_scheduled",
       static_cast<double>(report.retries_scheduled), "count"},
      {"cluster.submit_s", med([](const Rep& r) { return r.calls.submit_s; }),
       "s"},
      {"cluster.submit_calls", static_cast<double>(first.calls.submit_calls),
       "count"},
      {"cluster.place_s",
       med([](const Rep& r) { return r.span(Phase::kPlace); }), "s"},
      {"admission.accept_ratio", first.out.accept_ratio, "ratio"},
      {"session_manager.begin_slot_s",
       med([](const Rep& r) { return r.span(Phase::kBeginSlot); }), "s"},
      {"flight_recorder.events", static_cast<double>(first.out.flight_events),
       "count"},
      {"cluster.finish_s", med([](const Rep& r) { return r.finish_s; }), "s"},
      {"cluster.finish_ns_per_session", med([](const Rep& r) {
         return ratio(r.finish_s * 1e9, static_cast<double>(r.out.sessions));
       }),
       "ns"},
      {"session_manager.drain_s",
       med([](const Rep& r) { return r.span(Phase::kDrain); }), "s"},
      {"session_store.decide_s",
       med([](const Rep& r) { return r.span(Phase::kDecide); }), "s"},
      {"session_store.decide_groups_per_slot",
       ratio(c.decide_groups, c.decide_calls), "count"},
      {"session_store.decide_sharing",
       ratio(c.active_session_slots, c.decide_groups), "ratio"},
      {"session_store.decide_reuse_ratio",
       ratio(c.decide_reuses, c.decide_reuses + c.decide_rebuilds), "ratio"},
      {"scheduler.schedule_s",
       med([](const Rep& r) { return r.span(Phase::kSchedule); }), "s"},
      {"scheduler.fast_path_ratio",
       ratio(c.sched_fast, c.sched_fast + c.sched_generic), "ratio"},
      {"cluster.step_s", med([](const Rep& r) { return r.calls.step_s; }), "s"},
      {"cluster.step_ms_p99", med([](const Rep& r) { return r.step_p99_ms; }),
       "ms"},
      {"cluster.step_other_s",
       med([](const Rep& r) { return r.step_other_s(); }), "s"},
      {"cluster.fault_s", med([](const Rep& r) { return r.calls.fault_s; }),
       "s"},
      {"cluster.close_s", med([](const Rep& r) { return r.calls.close_s; }),
       "s"},
      {"cluster.sample_s", med([](const Rep& r) { return r.calls.sample_s; }),
       "s"},
      {"cluster.spills", static_cast<double>(m.spills), "count"},
      {"cluster.placement_rejects", static_cast<double>(m.placement_rejects),
       "count"},
      {"cluster.failover_displaced", static_cast<double>(m.failover_displaced),
       "count"},
      {"cluster.migrations_completed",
       static_cast<double>(m.migrations_completed), "count"},
      {"cluster.migrations_aborted", static_cast<double>(m.migrations_aborted),
       "count"},
      {"process.rss_setup_mib", fresh.rss_setup_mib, "MiB"},
      {"process.rss_run_growth_mib", fresh.rss_peak_mib - fresh.rss_setup_mib,
       "MiB"},
      {"telemetry.trace_overhead", ratio(traced_ns, plain_ns), "ratio"},
      {"trace.unattributed_share",
       med([](const Rep& r) { return r.unattributed_share(); }), "ratio"},
  };
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool parsed = false;
  try {
    parsed = parse_args(argc, argv, args);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: e2e_replay --workload <cohort|flash_churn|"
                 "handover_chaos> --seed <n> --seconds <s> --trace <0|1> "
                 "[--git-sha <sha>]\n");
    return 2;
  }
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "e2e_replay: refusing to record from a %s build; configure "
                 "with CMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::printf("provenance %s\n", provenance_json(args).c_str());
  std::fflush(stdout);

  // Repetitions: plain only, or alternating plain/traced. Each keeps going
  // until the time is spent and every kind has a warm-up plus kMinReps.
  std::vector<Rep> reps;
  std::size_t attempted = 0, failed = 0;
  const Clock::time_point start = Clock::now();
  auto count_of = [&reps](bool traced) {
    return static_cast<std::size_t>(std::count_if(
        reps.begin(), reps.end(),
        [traced](const Rep& r) { return r.traced == traced; }));
  };
  auto need_more = [&]() {
    if (reps.size() + failed >= kMaxReps) return false;
    if (count_of(false) <= kMinReps) return true;
    if (args.trace == 1 && count_of(true) <= kMinReps) return true;
    return since(start) < args.seconds;
  };
  while (need_more()) {
    const bool traced = args.trace == 1 && reps.size() % 2 == 1;
    ++attempted;
    try {
      Rep rep = run_rep(args.workload, args.seed, traced);
      for (const std::string& f : rep.out.failures) {
        std::printf("check FAILED (%s rep %zu): %s\n",
                    traced ? "traced" : "plain", attempted, f.c_str());
      }
      if (!rep.out.failures.empty()) ++failed;
      std::printf("rep %zu %s: setup %.4f s, run+finish %.4f s, "
                  "%.2f ns/session-slot, slot p50 %.4f ms\n",
                  attempted, traced ? "traced" : "plain", rep.setup_s,
                  rep.run_s + rep.finish_s, rep.ns_per_session_slot(),
                  rep.step_p50_ms);
      reps.push_back(std::move(rep));
    } catch (const std::exception& e) {
      std::printf("rep %zu FAILED: %s\n", attempted, e.what());
      ++failed;
      if (failed >= kMinReps) break;
    }
  }
  const double peak_rss = peak_rss_mib();

  std::vector<const Rep*> plain, traced;
  for (const Rep& rep : reps) (rep.traced ? traced : plain).push_back(&rep);
  if (plain.size() < 2 || (args.trace == 1 && traced.size() < 2)) {
    std::fprintf(stderr, "e2e_replay: too few repetitions completed\n");
    return 1;
  }

  // Determinism: every repetition of the seed repeats the first one's
  // outputs and work counts; tracing changes none of the shared entries.
  for (const Rep& rep : reps) {
    const Rep& base = rep.traced ? *traced.front() : *plain.front();
    std::string diff = first_difference(rep.out.fingerprint,
                                        base.out.fingerprint);
    if (diff.empty() && rep.traced) {
      diff = first_difference(rep.out.fingerprint,
                              plain.front()->out.fingerprint);
    }
    if (!diff.empty()) {
      std::printf("check FAILED: %s repetition differs in %s\n",
                  rep.traced ? "traced" : "plain", diff.c_str());
      ++failed;
    }
  }

  // Transparency: the decorated replay reproduces replay_trace.
  ++attempted;
  try {
    const Outputs oracle = run_oracle(args.workload, args.seed);
    const std::string diff =
        first_difference(plain.front()->out.fingerprint, oracle.fingerprint);
    if (!diff.empty() || !oracle.failures.empty()) {
      std::printf("check FAILED: decorated replay differs from replay_trace "
                  "in %s\n",
                  diff.empty() ? oracle.failures.front().c_str()
                               : diff.c_str());
      ++failed;
    }
  } catch (const std::exception& e) {
    std::printf("oracle FAILED: %s\n", e.what());
    ++failed;
  }

  const Outputs& out = plain.front()->out;
  std::printf("workload %s seed %llu: %zu plain + %zu traced repetitions "
              "in %.1f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              plain.size(), traced.size(), since(start));
  std::printf("sessions_attempted %zu  sessions_failed %zu  "
              "session_slots %.0f  peak_rss_mib %.1f\n",
              out.sessions_attempted, out.sessions_failed, out.session_slots,
              peak_rss);

  // The first repetition of each kind warms the process (page faults on a
  // fresh heap, cold caches) and stays out of the medians; its checks and
  // its fresh-process memory figures still count.
  const std::vector<const Rep*> plain_timed(plain.begin() + 1, plain.end());
  const std::vector<const Rep*> traced_timed(
      traced.empty() ? traced.end() : traced.begin() + 1, traced.end());
  const std::vector<Metric> metrics =
      args.trace == 1
          ? per_layer_metrics(traced_timed, plain_timed, *plain.front())
          : end_to_end_metrics(plain_timed, peak_rss);
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true"
                                                                : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    std::printf("  %-40s %24s %s\n", metric.name.c_str(),
                format_number(metric.value).c_str(), metric.unit.c_str());
    json += (i ? ", " : "") + json_string(metric.name) +
            ": {\"value\": " + format_number(metric.value) +
            ", \"unit\": " + json_string(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}
