#include "sim/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace arvis {

std::vector<double> Trace::backlog_series() const {
  std::vector<double> out;
  out.reserve(steps_.size());
  for (const StepRecord& s : steps_) out.push_back(s.backlog_begin);
  return out;
}

std::vector<int> Trace::depth_series() const {
  std::vector<int> out;
  out.reserve(steps_.size());
  for (const StepRecord& s : steps_) out.push_back(s.depth);
  return out;
}

std::vector<double> Trace::quality_series() const {
  std::vector<double> out;
  out.reserve(steps_.size());
  for (const StepRecord& s : steps_) out.push_back(s.quality);
  return out;
}

TraceSummary Trace::summarize() const {
  if (steps_.size() < 8) {
    throw std::logic_error("Trace::summarize: need >= 8 slots");
  }
  return summarize_partial();
}

TraceSummary Trace::summarize_partial() const {
  if (steps_.empty()) {
    throw std::logic_error("Trace::summarize_partial: empty trace");
  }
  TraceSummary summary;
  double q_sum = 0.0, b_sum = 0.0, d_sum = 0.0, a_sum = 0.0, s_sum = 0.0;
  for (const StepRecord& s : steps_) {
    q_sum += s.quality;
    b_sum += s.backlog_begin;
    d_sum += s.depth;
    a_sum += s.arrivals;
    s_sum += s.service;
    summary.peak_backlog = std::max(summary.peak_backlog, s.backlog_begin);
  }
  const auto n = static_cast<double>(steps_.size());
  summary.time_average_quality = q_sum / n;
  summary.time_average_backlog = b_sum / n;
  summary.mean_depth = d_sum / n;
  summary.mean_arrivals = a_sum / n;
  summary.mean_service = s_sum / n;
  summary.final_backlog = steps_.back().backlog_end;
  if (steps_.size() < 8) {
    // Too short for the regression-based stability classifier: report the
    // observables we do have and flag the summary partial so consumers show
    // "too-short" instead of a fabricated verdict.
    summary.partial = true;
    summary.stability.peak = summary.peak_backlog;
    summary.stability.time_average = summary.time_average_backlog;
    summary.stability.tail_mean = summary.time_average_backlog;
    return summary;
  }
  // Scale-relative thresholds: a stable queue still holds up to one slot of
  // arrivals at the observation instant (Lindley order: serve, then admit),
  // so "converged to zero" means "at most ~a couple of slots of arrivals";
  // genuine divergence grows by a macroscopic fraction of the arrival rate
  // every slot.
  const double zero_threshold = std::max(1.0, 2.0 * summary.mean_arrivals);
  const double divergence_slope = std::max(1.0, 0.02 * summary.mean_arrivals);
  // One reused per-thread series instead of a fresh copy per summary: the
  // serving runtime summarizes every session at finish().
  thread_local std::vector<double> backlog;
  backlog.clear();
  for (const StepRecord& s : steps_) backlog.push_back(s.backlog_begin);
  summary.stability = analyze_stability(backlog, 1.0 / 3.0, divergence_slope,
                                        zero_threshold);
  return summary;
}

CsvTable Trace::to_csv_table() const {
  CsvTable table({"t", "depth", "arrivals", "service", "backlog", "quality"});
  for (const StepRecord& s : steps_) {
    table.add_row({static_cast<std::int64_t>(s.t),
                   static_cast<std::int64_t>(s.depth), s.arrivals, s.service,
                   s.backlog_begin, s.quality});
  }
  return table;
}

}  // namespace arvis
