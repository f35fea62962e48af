#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace arvis {

void RunningStats::add(double x) noexcept {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * n2 / (n1 + n2);
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  if (!(lo < hi)) throw std::invalid_argument("Histogram: need lo < hi");
}

void Histogram::add(double x) noexcept {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / bin_width_);
  idx = std::min(idx, counts_.size() - 1);  // guard FP edge at hi_
  ++counts_[idx];
}

double Histogram::bin_lower(std::size_t i) const noexcept {
  return lo_ + bin_width_ * static_cast<double>(i);
}

double Histogram::quantile(double p) const noexcept {
  if (total_ == 0) return std::nan("");
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(total_);
  double cumulative = static_cast<double>(underflow_);
  if (target <= cumulative) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (target <= next && counts_[i] > 0) {
      const double frac = (target - cumulative) / static_cast<double>(counts_[i]);
      return bin_lower(i) + frac * bin_width_;
    }
    cumulative = next;
  }
  return hi_;
}

double exact_quantile(std::vector<double> sample, double p) noexcept {
  if (sample.empty()) return std::nan("");
  p = std::clamp(p, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sample.size() - 1) + 0.5);
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<std::ptrdiff_t>(idx),
                   sample.end());
  return sample[idx];
}

namespace {

/// Ordinary least squares over y against the axis `x(i)`; shared by the
/// explicit-axis and index-axis entry points so both round identically.
template <class Axis>
LinearFit fit_line(Axis x, std::span<const double> y) noexcept {
  LinearFit fit;
  if (y.size() < 2) return fit;
  const auto n = static_cast<double>(y.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    sx += x(i);
    sy += y[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double dx = x(i) - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace

LinearFit fit_linear(std::span<const double> x,
                     std::span<const double> y) noexcept {
  if (x.size() != y.size()) return LinearFit{};
  return fit_line([x](std::size_t i) { return x[i]; }, y);
}

LinearFit fit_linear_indexed(std::size_t first,
                             std::span<const double> y) noexcept {
  return fit_line(
      [first](std::size_t i) { return static_cast<double>(first + i); }, y);
}

}  // namespace arvis
