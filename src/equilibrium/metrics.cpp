#include "equilibrium/metrics.h"

#include <algorithm>

namespace staleflow {

double wardrop_gap(const Instance& instance,
                   std::span<const double> path_flow) {
  return wardrop_gap(instance, path_flow, evaluate(instance, path_flow));
}

double wardrop_gap(const Instance& instance, std::span<const double> path_flow,
                   const FlowEvaluation& eval) {
  double gap = 0.0;
  for (std::size_t p = 0; p < instance.path_count(); ++p) {
    const CommodityId c = instance.commodity_of(PathId{p});
    gap += path_flow[p] *
           (eval.path_latency[p] - eval.commodity_min_latency[c.index()]);
  }
  return gap;
}

double unsatisfied_volume(const Instance& instance,
                          std::span<const double> path_flow, double delta) {
  const FlowEvaluation eval = evaluate(instance, path_flow);
  double volume = 0.0;
  for (std::size_t p = 0; p < instance.path_count(); ++p) {
    const CommodityId c = instance.commodity_of(PathId{p});
    if (eval.path_latency[p] >
        eval.commodity_min_latency[c.index()] + delta) {
      volume += path_flow[p];
    }
  }
  return volume;
}

double weakly_unsatisfied_volume(const Instance& instance,
                                 std::span<const double> path_flow,
                                 double delta) {
  const FlowEvaluation eval = evaluate(instance, path_flow);
  double volume = 0.0;
  for (std::size_t p = 0; p < instance.path_count(); ++p) {
    const CommodityId c = instance.commodity_of(PathId{p});
    if (eval.path_latency[p] >
        eval.commodity_avg_latency[c.index()] + delta) {
      volume += path_flow[p];
    }
  }
  return volume;
}

double max_latency_deviation(const Instance& instance,
                             std::span<const double> path_flow,
                             double flow_threshold) {
  const FlowEvaluation eval = evaluate(instance, path_flow);
  double worst = 0.0;
  for (std::size_t p = 0; p < instance.path_count(); ++p) {
    if (path_flow[p] <= flow_threshold) continue;
    const CommodityId c = instance.commodity_of(PathId{p});
    worst = std::max(worst, eval.path_latency[p] -
                                eval.commodity_min_latency[c.index()]);
  }
  return worst;
}

}  // namespace staleflow
