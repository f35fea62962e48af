#include "serving/metrics.hpp"

#include <algorithm>

namespace arvis {

double jain_fairness_index(const std::vector<double>& values) {
  double sum = 0.0, sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  return jain_fairness_index(sum, sum_sq, values.size());
}

double jain_fairness_index(double sum, double sum_sq, std::size_t n) noexcept {
  if (n == 0) return 0.0;
  // All-zero fleet: every session got the same (zero) outcome — perfectly
  // fair, not maximally unfair (the seed returned 0 here, which made an
  // idle fleet look pathological).
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(n) * sum_sq);
}

void ServerMetrics::record_slot(double capacity_offered, double capacity_used,
                                std::size_t active_sessions) {
  capacity_offered_ += capacity_offered;
  capacity_used_ += capacity_used;
  peak_concurrency_ = std::max(peak_concurrency_, active_sessions);
}

void ServerMetrics::record_session(bool arrived, bool admitted,
                                   const TraceSummary* summary) noexcept {
  ++sessions_;
  if (!arrived) return;  // admission never saw it
  if (!admitted) {
    ++rejected_;
    return;
  }
  ++admitted_;
  if (summary == nullptr) return;
  const double quality = summary->time_average_quality;
  ++summarized_;
  quality_sum_ += quality;
  quality_sum_sq_ += quality * quality;
  backlog_sum_ += summary->time_average_backlog;
  peak_backlog_ = std::max(peak_backlog_, summary->peak_backlog);
  if (summary->partial) {
    // Too short for a stability verdict, but its quality/backlog means are
    // real — excluding them made churn-heavy fleets under-report.
    ++partial_;
  } else if (summary->stability.verdict == StabilityVerdict::kDivergent) {
    ++divergent_;
  }
}

FleetMetrics ServerMetrics::fleet() const noexcept {
  FleetMetrics fleet;
  fleet.sessions_submitted = sessions_;
  fleet.sessions_admitted = admitted_;
  fleet.sessions_rejected = rejected_;
  fleet.capacity_offered = capacity_offered_;
  fleet.capacity_used = capacity_used_;
  fleet.peak_concurrency = peak_concurrency_;
  fleet.mean_quality = quality_sum_;
  if (summarized_ > 0) {
    fleet.mean_quality /= static_cast<double>(summarized_);
  }
  fleet.quality_fairness =
      jain_fairness_index(quality_sum_, quality_sum_sq_, summarized_);
  fleet.total_time_average_backlog = backlog_sum_;
  fleet.peak_backlog = peak_backlog_;
  fleet.divergent_sessions = divergent_;
  fleet.partial_summary_sessions = partial_;
  return fleet;
}

}  // namespace arvis
