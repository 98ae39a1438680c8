// Latency-function combinators: build new latencies from existing ones
// while keeping exact derivatives, integrals and slope bounds.
//
//   scale(c, f)   : x -> c * f(x)          (c >= 0)
//   offset(f, c)  : x -> f(x) + c          (c >= 0)
//
// Combinators own clones of their operands, so temporaries are safe:
//   LatencyPtr l = offset(scale(2.0, affine(0, 1)), 3.0);
#pragma once

#include "latency/latency_function.h"

namespace staleflow {

/// c * f(x).
class ScaledLatency final : public LatencyFunction {
 public:
  ScaledLatency(double factor, const LatencyFunction& base);
  double value(double x) const override;
  double derivative(double x) const override;
  double integral(double x) const override;
  double max_slope(double x_max) const override;
  std::string describe() const override;
  LatencyPtr clone() const override;

 private:
  double factor_;
  LatencyPtr base_;
};

LatencyPtr scale(double factor, const LatencyFunction& base);
LatencyPtr scale(double factor, const LatencyPtr& base);
LatencyPtr offset(const LatencyFunction& base, double constant_term);
LatencyPtr offset(const LatencyPtr& base, double constant_term);

}  // namespace staleflow
