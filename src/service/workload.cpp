#include "service/workload.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/spec_parse.h"

namespace staleflow {
namespace {

class PoissonWorkload final : public WorkloadGenerator {
 public:
  explicit PoissonWorkload(double rate) : rate_(rate) {}

  std::size_t arrivals(std::uint64_t, double, double period,
                       const LoadFeedback&, Rng& rng) const override {
    return poisson_draw(rate_ * period, rng);
  }

  std::string name() const override {
    std::ostringstream out;
    out << "poisson:" << rate_;
    return out.str();
  }

 private:
  double rate_;
};

class BurstyWorkload final : public WorkloadGenerator {
 public:
  BurstyWorkload(double rate_on, double rate_off, std::uint64_t on_epochs,
                 std::uint64_t off_epochs)
      : rate_on_(rate_on),
        rate_off_(rate_off),
        on_epochs_(on_epochs),
        off_epochs_(off_epochs) {}

  std::size_t arrivals(std::uint64_t epoch, double, double period,
                       const LoadFeedback&, Rng& rng) const override {
    const std::uint64_t cycle = epoch % (on_epochs_ + off_epochs_);
    const double rate = cycle < on_epochs_ ? rate_on_ : rate_off_;
    return poisson_draw(rate * period, rng);
  }

  std::string name() const override {
    std::ostringstream out;
    out << "bursty:" << rate_on_ << ',' << rate_off_ << ',' << on_epochs_
        << ',' << off_epochs_;
    return out.str();
  }

 private:
  double rate_on_;
  double rate_off_;
  std::uint64_t on_epochs_;
  std::uint64_t off_epochs_;
};

class DiurnalWorkload final : public WorkloadGenerator {
 public:
  DiurnalWorkload(double base_rate, double amplitude, double day_length)
      : base_(base_rate), amplitude_(amplitude), day_(day_length) {}

  std::size_t arrivals(std::uint64_t, double start, double period,
                       const LoadFeedback&, Rng& rng) const override {
    // Rate at the epoch midpoint; epochs are short against a day.
    const double t = start + 0.5 * period;
    const double rate =
        base_ * (1.0 + amplitude_ *
                           std::sin(2.0 * std::numbers::pi * t / day_));
    return poisson_draw(std::max(rate, 0.0) * period, rng);
  }

  std::string name() const override {
    std::ostringstream out;
    out << "diurnal:" << base_ << ',' << amplitude_ << ',' << day_;
    return out.str();
  }

 private:
  double base_;
  double amplitude_;
  double day_;
};

class ClosedLoopWorkload final : public WorkloadGenerator {
 public:
  explicit ClosedLoopWorkload(std::size_t queries_per_epoch)
      : queries_(queries_per_epoch) {}

  std::size_t arrivals(std::uint64_t, double, double, const LoadFeedback&,
                       Rng&) const override {
    return queries_;
  }

  std::string name() const override {
    std::ostringstream out;
    out << "closed-loop:" << queries_;
    return out.str();
  }

 private:
  std::size_t queries_;
};

class ClosedLoopLatencyWorkload final : public WorkloadGenerator {
 public:
  ClosedLoopLatencyWorkload(std::size_t clients, double think_time)
      : clients_(clients), think_(think_time) {}

  std::size_t arrivals(std::uint64_t, double, double period,
                       const LoadFeedback& feedback, Rng&) const override {
    // One client cycle = think + the latency the service actually served
    // last epoch; the fleet fits clients * period / cycle queries into
    // the epoch. Deterministic: route_p50 is a board value, not wall
    // clock, so the whole feedback loop replays bit-for-bit.
    const double cycle =
        think_ + (feedback.has_previous ? feedback.route_p50 : 0.0);
    const double queries = static_cast<double>(clients_) * period / cycle;
    // As in poisson_draw: no epoch holds 2^63 queries, and casting a
    // double past size_t's range is undefined.
    if (!(queries < 0x1p63)) {
      throw std::invalid_argument(
          "closed-loop-lat: 2^63 or more queries in one epoch");
    }
    return static_cast<std::size_t>(queries);
  }

  std::string name() const override {
    std::ostringstream out;
    out << "closed-loop-lat:" << clients_ << ',' << think_;
    return out.str();
  }

 private:
  std::size_t clients_;
  double think_;
};

}  // namespace

std::size_t poisson_draw(double mean, Rng& rng) {
  if (!std::isfinite(mean)) {
    throw std::invalid_argument("poisson_draw: arrival mean is not finite");
  }
  if (!(mean > 0.0)) return 0;
  if (mean > 64.0) {
    const double draw = rng.normal(mean, std::sqrt(mean));
    // llround is undefined past long long; no epoch can hold 2^63 queries.
    if (draw >= 0x1p63) {
      std::ostringstream message;
      message << "poisson_draw: arrival mean " << mean
              << " draws 2^63 or more queries in one epoch";
      throw std::invalid_argument(message.str());
    }
    return draw <= 0.0 ? 0 : static_cast<std::size_t>(std::llround(draw));
  }
  // Knuth: multiply uniforms until the product drops below exp(-mean).
  const double limit = std::exp(-mean);
  std::size_t count = 0;
  double product = rng.uniform();
  while (product > limit) {
    ++count;
    product *= rng.uniform();
  }
  return count;
}

WorkloadPtr poisson_workload(double rate) {
  if (!(rate > 0.0)) {
    throw std::invalid_argument("poisson_workload: rate must be > 0");
  }
  return std::make_unique<PoissonWorkload>(rate);
}

WorkloadPtr bursty_workload(double rate_on, double rate_off,
                            std::uint64_t on_epochs,
                            std::uint64_t off_epochs) {
  if (!(rate_on >= 0.0) || !(rate_off >= 0.0)) {
    throw std::invalid_argument("bursty_workload: rates must be >= 0");
  }
  if (on_epochs + off_epochs == 0 || on_epochs > ~off_epochs) {
    throw std::invalid_argument(
        "bursty_workload: the cycle must be 1 to 2^64 - 1 epochs");
  }
  return std::make_unique<BurstyWorkload>(rate_on, rate_off, on_epochs,
                                          off_epochs);
}

WorkloadPtr diurnal_workload(double base_rate, double amplitude,
                             double day_length) {
  if (!(base_rate > 0.0) || !(day_length > 0.0) || amplitude < 0.0) {
    throw std::invalid_argument(
        "diurnal_workload: need base > 0, day > 0, amplitude >= 0");
  }
  return std::make_unique<DiurnalWorkload>(base_rate, amplitude, day_length);
}

WorkloadPtr closed_loop_workload(std::size_t queries_per_epoch) {
  return std::make_unique<ClosedLoopWorkload>(queries_per_epoch);
}

WorkloadPtr closed_loop_latency_workload(std::size_t clients,
                                         double think_time) {
  if (!(think_time > 0.0)) {
    throw std::invalid_argument(
        "closed_loop_latency_workload: think_time must be > 0 (the first "
        "epoch has no served latency to pace on)");
  }
  return std::make_unique<ClosedLoopLatencyWorkload>(clients, think_time);
}

namespace {

/// make_workload without the grammar reminder: throws
/// std::invalid_argument saying only what is wrong.
WorkloadPtr parse_workload(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string head = spec.substr(0, colon);
  const std::vector<std::string> p =
      split(colon == std::string::npos ? "" : spec.substr(colon + 1), ",");
  const auto arity = [&](std::size_t expect) {
    if (p.size() != expect) {
      throw std::invalid_argument("wrong parameter count");
    }
  };

  if (head == "poisson") {
    arity(1);
    return poisson_workload(parse_number(p[0], "the rate"));
  }
  if (head == "bursty") {
    arity(4);
    return bursty_workload(parse_number(p[0], "the on rate"),
                           parse_number(p[1], "the off rate"),
                           parse_count(p[2], "on_epochs"),
                           parse_count(p[3], "off_epochs"));
  }
  if (head == "diurnal") {
    arity(3);
    return diurnal_workload(parse_number(p[0], "the base rate"),
                            parse_number(p[1], "the amplitude"),
                            parse_number(p[2], "the day length"));
  }
  if (head == "closed-loop") {
    arity(1);
    return closed_loop_workload(parse_count(p[0], "queries per epoch"));
  }
  if (head == "closed-loop-lat") {
    arity(2);
    return closed_loop_latency_workload(parse_count(p[0], "clients"),
                                        parse_number(p[1], "the think time"));
  }
  throw std::invalid_argument("unknown workload '" + head + "'");
}

}  // namespace

WorkloadPtr make_workload(const std::string& spec) {
  try {
    return parse_workload(spec);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("make_workload: " + std::string(e.what()) +
                                " in '" + spec + "' (have: " +
                                std::string(kWorkloadGrammar) + ")");
  }
}

}  // namespace staleflow
