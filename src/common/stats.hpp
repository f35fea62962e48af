// Streaming statistics and histograms used by the analysis and queueing
// modules (time-average backlog, quality distributions, delay percentiles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace arvis {

/// Single-pass running mean/variance/min/max (Welford's algorithm).
/// Numerically stable; O(1) memory.
class RunningStats {
 public:
  /// Incorporates one observation.
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two observations.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept {
    return count_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const noexcept {
    return count_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::max();
  double max_ = std::numeric_limits<double>::lowest();
};

/// Fixed-range linear-bin histogram with saturating under/overflow bins.
class Histogram {
 public:
  /// Buckets [lo, hi) into `bins` equal bins. Preconditions: bins > 0, lo < hi.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;

  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count_in_bin(std::size_t i) const {
    return counts_.at(i);
  }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Lower edge of bin i.
  [[nodiscard]] double bin_lower(std::size_t i) const noexcept;

  /// Approximate p-quantile (p in [0,1]) by linear interpolation within the
  /// containing bin. Returns NaN if empty.
  [[nodiscard]] double quantile(double p) const noexcept;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Exact quantile of a sample (copies + nth_element; use for small samples).
/// p in [0,1]; returns NaN on an empty sample.
double exact_quantile(std::vector<double> sample, double p) noexcept;

/// Ordinary least squares fit y ≈ slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

/// Fits a line to (x[i], y[i]) pairs. Requires x.size() == y.size() >= 2;
/// returns a zero fit otherwise.
LinearFit fit_linear(std::span<const double> x,
                     std::span<const double> y) noexcept;

/// fit_linear against the index axis x[i] = first + i, without
/// materializing x — bit-identical to passing that axis explicitly.
LinearFit fit_linear_indexed(std::size_t first,
                             std::span<const double> y) noexcept;

}  // namespace arvis
