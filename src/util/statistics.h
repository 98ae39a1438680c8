// Streaming and batch statistics used by the analysis layer and benches.
#pragma once

#include <cstddef>
#include <span>

namespace staleflow {

/// Numerically stable streaming mean/variance (Welford's algorithm),
/// plus running min/max. Suitable for very long time series where storing
/// all samples is wasteful.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Mean of the samples. Requires count() > 0.
  double mean() const;
  /// Unbiased sample variance. Requires count() > 1.
  double variance() const;
  /// sqrt(variance()). Requires count() > 1.
  double stddev() const;
  /// Requires count() > 0.
  double min() const;
  /// Requires count() > 0.
  double max() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear-interpolation quantile, q in [0, 1], of input already sorted
/// ascending. Edge cases are exact: q == 0 returns the first sample,
/// q == 1 the last, and a single-sample input returns that sample for
/// every q. Throws std::invalid_argument on an empty span or q outside
/// [0, 1].
double sorted_quantile(std::span<const double> sorted, double q);

/// Ordinary least squares fit y = a + b*x. Returns {a, b, r2}.
/// Requires xs.size() == ys.size() >= 2 and non-constant xs.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};
LinearFit fit_line(std::span<const double> xs, std::span<const double> ys);

/// Fits y = c * x^p via log-log OLS. Requires all inputs strictly positive.
struct PowerFit {
  double coefficient = 0.0;
  double exponent = 0.0;
  double r_squared = 0.0;
};
PowerFit fit_power(std::span<const double> xs, std::span<const double> ys);

}  // namespace staleflow
