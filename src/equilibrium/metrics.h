// Equilibrium quality metrics: the Wardrop gap and the paper's approximate
// equilibrium notions (Definitions 3 and 4).
#pragma once

#include <span>

#include "net/flow.h"
#include "net/instance.h"

namespace staleflow {

/// Total excess latency over per-commodity minima:
///   gap(f) = sum_P f_P * (l_P(f) - l^i_min(f)).
/// Zero exactly at Wardrop equilibria; continuous in f.
double wardrop_gap(const Instance& instance,
                   std::span<const double> path_flow);

/// Same, computed from a prepared evaluation (avoids recomputation).
double wardrop_gap(const Instance& instance, std::span<const double> path_flow,
                   const FlowEvaluation& eval);

/// Volume of delta-unsatisfied agents (Definition 3): total flow on paths P
/// with l_P(f) > l^i_min(f) + delta.
double unsatisfied_volume(const Instance& instance,
                          std::span<const double> path_flow, double delta);

/// Volume of weakly delta-unsatisfied agents (Definition 4): total flow on
/// paths P with l_P(f) > L_i(f) + delta.
double weakly_unsatisfied_volume(const Instance& instance,
                                 std::span<const double> path_flow,
                                 double delta);

/// Maximum latency deviation from the commodity minimum over paths that
/// carry at least `flow_threshold` volume. This is the X of the paper's
/// Section 3.2 oscillation analysis.
double max_latency_deviation(const Instance& instance,
                             std::span<const double> path_flow,
                             double flow_threshold = 0.0);

}  // namespace staleflow
