#include "util/statistics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace staleflow {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  if (count_ == 0) throw std::logic_error("RunningStats::mean: no samples");
  return mean_;
}

double RunningStats::variance() const {
  if (count_ < 2) {
    throw std::logic_error("RunningStats::variance: need >= 2 samples");
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  if (count_ == 0) throw std::logic_error("RunningStats::min: no samples");
  return min_;
}

double RunningStats::max() const {
  if (count_ == 0) throw std::logic_error("RunningStats::max: no samples");
  return max_;
}

double sorted_quantile(std::span<const double> sorted, double q) {
  if (sorted.empty()) {
    throw std::invalid_argument("sorted_quantile: empty input");
  }
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("sorted_quantile: q not in [0,1]");
  }
  // Endpoints and singletons return the sample itself, bypassing the
  // interpolation arithmetic: `x * (1 - frac) + y * frac` is not exactly x
  // at frac == 0 when y is infinite (0 * inf == NaN), and the extreme
  // quantiles should round-trip the extreme samples bit-for-bit.
  if (sorted.size() == 1 || q == 0.0) return sorted.front();
  if (q == 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

LinearFit fit_line(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("fit_line: size mismatch");
  }
  if (xs.size() < 2) throw std::invalid_argument("fit_line: need >= 2 points");
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / n, my = sy / n;
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx, dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) throw std::invalid_argument("fit_line: constant xs");
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy == 0.0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

PowerFit fit_power(std::span<const double> xs, std::span<const double> ys) {
  std::vector<double> lx(xs.size()), ly(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (!(xs[i] > 0.0) || !(ys[i] > 0.0)) {
      throw std::invalid_argument("fit_power: inputs must be positive");
    }
    lx[i] = std::log(xs[i]);
    ly[i] = std::log(ys[i]);
  }
  const LinearFit lf = fit_line(lx, ly);
  return PowerFit{std::exp(lf.intercept), lf.slope, lf.r_squared};
}

}  // namespace staleflow
