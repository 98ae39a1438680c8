// Flow vectors and their induced quantities.
//
// A flow vector f assigns volume to every path. Everything the dynamics and
// the metrics need — edge flows, edge/path latencies, per-commodity averages
// L_i, overall average L — derives from it. FlowEvaluation bundles those
// derived quantities so they are computed once per time step.
#pragma once

#include <span>
#include <vector>

#include "graph/ids.h"
#include "net/instance.h"

namespace staleflow {

/// Path-flow vector tied to an instance's path index space.
class FlowVector {
 public:
  /// Zero flow (infeasible until populated).
  explicit FlowVector(const Instance& instance);

  /// Even split: each commodity's demand spread uniformly over its paths.
  static FlowVector uniform(const Instance& instance);

  /// All demand of each commodity on the path given by `choice[c]`, which
  /// indexes into the commodity's path list.
  static FlowVector concentrated(const Instance& instance,
                                 std::span<const std::size_t> choice);

  /// Wraps raw values (must have instance.path_count() entries).
  FlowVector(const Instance& instance, std::vector<double> values);

  /// Copies raw values out of a span (same size contract).
  FlowVector(const Instance& instance, std::span<const double> values);

  double operator[](PathId p) const { return values_[p.index()]; }
  double& operator[](PathId p) { return values_[p.index()]; }

  std::span<const double> values() const noexcept { return values_; }
  std::vector<double>& mutable_values() noexcept { return values_; }

 private:
  std::vector<double> values_;
};

/// Checks feasibility: f_P >= -tol and |sum_{P in P_i} f_P - r_i| <= tol.
bool is_feasible(const Instance& instance, std::span<const double> path_flow,
                 double tolerance = 1e-9);

/// Projects a nearly feasible vector back onto the simplex product: clamps
/// negatives to 0 and rescales each commodity block to its demand. Used to
/// contain numerical drift in long ODE integrations. Throws
/// std::invalid_argument if a commodity block has zero total mass.
void renormalise(const Instance& instance, std::vector<double>& path_flow);

/// Aggregates path flow into per-edge flow, f_e = sum_{P : e in P} f_P.
std::vector<double> edge_flows(const Instance& instance,
                               std::span<const double> path_flow);

/// All derived quantities of a flow vector at once.
struct FlowEvaluation {
  std::vector<double> edge_flow;      // by EdgeId
  std::vector<double> edge_latency;   // l_e(f_e)
  std::vector<double> path_latency;   // l_P(f) = sum_{e in P} l_e(f_e)
  std::vector<double> commodity_min_latency;  // per commodity, min_P l_P
  std::vector<double> commodity_avg_latency;  // L_i = sum (f_P/r_i) l_P
  double average_latency = 0.0;               // L = sum_P f_P l_P
};

FlowEvaluation evaluate(const Instance& instance,
                        std::span<const double> path_flow);

/// Just the path latencies induced by `path_flow` (cheaper than evaluate()).
std::vector<double> path_latencies(const Instance& instance,
                                   std::span<const double> path_flow);

}  // namespace staleflow
