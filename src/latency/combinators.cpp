#include "latency/combinators.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "latency/functions.h"

namespace staleflow {
namespace {

/// f(x) + c, evaluated as the sum of f and the constant latency c.
class OffsetLatency final : public LatencyFunction {
 public:
  OffsetLatency(const LatencyFunction& base, double constant_term)
      : base_(base.clone()), shift_(constant_term) {}
  double value(double x) const override {
    return base_->value(x) + shift_.value(x);
  }
  double derivative(double x) const override {
    return base_->derivative(x) + shift_.derivative(x);
  }
  double integral(double x) const override {
    return base_->integral(x) + shift_.integral(x);
  }
  double max_slope(double x_max) const override {
    return base_->max_slope(x_max) + shift_.max_slope(x_max);
  }
  std::string describe() const override {
    return std::string("(")
        .append(base_->describe())
        .append(") + (")
        .append(shift_.describe())
        .append(")");
  }
  LatencyPtr clone() const override {
    return std::make_unique<OffsetLatency>(*base_, shift_.constant_value());
  }

 private:
  LatencyPtr base_;
  ConstantLatency shift_;
};

}  // namespace

ScaledLatency::ScaledLatency(double factor, const LatencyFunction& base)
    : factor_(factor), base_(base.clone()) {
  if (!(factor >= 0.0) || !std::isfinite(factor)) {
    throw std::invalid_argument("ScaledLatency: factor must be >= 0");
  }
}

double ScaledLatency::value(double x) const {
  return factor_ * base_->value(x);
}

double ScaledLatency::derivative(double x) const {
  return factor_ * base_->derivative(x);
}

double ScaledLatency::integral(double x) const {
  return factor_ * base_->integral(x);
}

double ScaledLatency::max_slope(double x_max) const {
  return factor_ * base_->max_slope(x_max);
}

std::string ScaledLatency::describe() const {
  std::ostringstream os;
  os << factor_ << "*(" << base_->describe() << ")";
  return os.str();
}

LatencyPtr ScaledLatency::clone() const {
  return std::make_unique<ScaledLatency>(factor_, *base_);
}

LatencyPtr scale(double factor, const LatencyFunction& base) {
  return std::make_unique<ScaledLatency>(factor, base);
}

LatencyPtr scale(double factor, const LatencyPtr& base) {
  if (base == nullptr) throw std::invalid_argument("scale: null latency");
  return scale(factor, *base);
}

LatencyPtr offset(const LatencyFunction& base, double constant_term) {
  return std::make_unique<OffsetLatency>(base, constant_term);
}

LatencyPtr offset(const LatencyPtr& base, double constant_term) {
  if (base == nullptr) throw std::invalid_argument("offset: null latency");
  return offset(*base, constant_term);
}

}  // namespace staleflow
