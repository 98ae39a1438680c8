// Workload generators: the offered load of the route service.
//
// A generator decides how many route queries arrive in each epoch of
// length T. Open-loop shapes (Poisson, bursty on/off, diurnal ramp) model
// traffic that does not react to the service; the closed-loop shapes
// model a fixed client fleet — either issuing a constant batch per epoch,
// or (closed-loop-lat) pacing itself on the latency the service actually
// served in the previous epoch, the deterministic back-pressure loop. All
// draws come from the Rng handed in, and the latency feedback is a
// deterministic summary of the previous epoch, so a fixed seed replays
// the exact arrival sequence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace staleflow {

/// Deterministic feedback a generator may react to: the served-latency
/// summary of the previous epoch. Everything in here is a function of
/// seed and configuration only (board values, never wall clock), so
/// closed-loop generators stay inside the replay contract.
struct LoadFeedback {
  bool has_previous = false;  // false for the first epoch of a run
  double route_p50 = 0.0;     // previous epoch's median served latency
};

class WorkloadGenerator {
 public:
  virtual ~WorkloadGenerator() = default;

  /// Number of queries arriving in the epoch [start, start + period).
  /// `feedback` describes the previous epoch (has_previous == false on
  /// the first); open-loop generators ignore it.
  virtual std::size_t arrivals(std::uint64_t epoch, double start,
                               double period, const LoadFeedback& feedback,
                               Rng& rng) const = 0;

  virtual std::string name() const = 0;
};

using WorkloadPtr = std::unique_ptr<const WorkloadGenerator>;

/// Open-loop Poisson arrivals at a constant rate (queries per unit time).
WorkloadPtr poisson_workload(double rate);

/// On/off bursts: `on_epochs` epochs at `rate_on`, then `off_epochs` at
/// `rate_off`, repeating. Arrivals are Poisson at the phase's rate.
WorkloadPtr bursty_workload(double rate_on, double rate_off,
                            std::uint64_t on_epochs,
                            std::uint64_t off_epochs);

/// Diurnal ramp: Poisson arrivals at rate
/// base * (1 + amplitude * sin(2*pi * t / day)), clamped at 0.
WorkloadPtr diurnal_workload(double base_rate, double amplitude,
                             double day_length);

/// Closed loop: a fixed client fleet issues exactly `queries_per_epoch`
/// queries every epoch (zero think-time variance, no latency feedback).
WorkloadPtr closed_loop_workload(std::size_t queries_per_epoch);

/// Latency-fed closed loop: `clients` clients cycle "issue a query, think,
/// repeat", where one cycle costs think_time plus the latency the service
/// served in the previous epoch (its route_p50 — latency IS time in the
/// Wardrop model). Arrivals in an epoch of length T are therefore
///   floor(clients * T / (think_time + l_prev)),
/// with l_prev = 0 for the first epoch. Congestion raises served latency,
/// which lowers the offered load — deterministic user back-pressure.
/// Requires clients >= 0 and think_time > 0.
WorkloadPtr closed_loop_latency_workload(std::size_t clients,
                                         double think_time);

/// The make_workload grammar, as its errors and the tools' usage print
/// it: rates, amplitude, day and think time are numbers, the rest counts
/// (util/spec_parse.h).
inline constexpr std::string_view kWorkloadGrammar =
    "poisson:<rate> | bursty:<on>,<off>,<on_epochs>,<off_epochs> | "
    "diurnal:<base>,<amplitude>,<day> | closed-loop:<n> | "
    "closed-loop-lat:<clients>,<think>";

/// Parses a workload spec in kWorkloadGrammar. Throws
/// std::invalid_argument listing the grammar on a bad spec.
WorkloadPtr make_workload(const std::string& spec);

/// Poisson variate with the given mean: Knuth's product method for small
/// means, a clamped normal approximation above 64 (exact distribution
/// tails are irrelevant at that size; determinism is what matters).
/// Throws std::invalid_argument for a non-finite mean or a draw of 2^63
/// or more.
std::size_t poisson_draw(double mean, Rng& rng);

}  // namespace staleflow
