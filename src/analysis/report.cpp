#include "analysis/report.h"

#include <sstream>

#include "equilibrium/metrics.h"
#include "equilibrium/potential.h"
#include "equilibrium/social.h"
#include "net/flow.h"
#include "util/table.h"

namespace staleflow {

FlowReport make_report(const Instance& instance,
                       std::span<const double> path_flow) {
  const FlowEvaluation eval = evaluate(instance, path_flow);
  FlowReport report;
  report.potential = potential(instance, path_flow);
  report.gap = wardrop_gap(instance, path_flow, eval);
  report.average_latency = eval.average_latency;
  report.social_cost = social_cost(instance, path_flow);

  for (std::size_t c = 0; c < instance.commodity_count(); ++c) {
    const Commodity& commodity = instance.commodity(CommodityId{c});
    CommodityReport cr;
    cr.id = CommodityId{c};
    cr.demand = commodity.demand;
    cr.min_latency = eval.commodity_min_latency[c];
    cr.avg_latency = eval.commodity_avg_latency[c];
    for (const PathId p : commodity.paths) {
      if (path_flow[p.index()] > 1e-9) ++cr.active_paths;
      cr.gap_share += path_flow[p.index()] *
                      (eval.path_latency[p.index()] -
                       eval.commodity_min_latency[c]);
    }
    report.commodities.push_back(cr);
  }
  return report;
}

std::string format_report(const Instance& instance,
                          const FlowReport& report) {
  std::ostringstream os;
  os << instance.describe() << "\n"
     << "potential " << fmt(report.potential, 6) << "  gap "
     << fmt_sci(report.gap) << "  avg latency "
     << fmt(report.average_latency, 6) << "  social cost "
     << fmt(report.social_cost, 6) << "\n";
  Table table({"commodity", "demand", "min latency", "avg latency",
               "gap share", "active paths"});
  for (const CommodityReport& cr : report.commodities) {
    table.add_row({std::string("c").append(std::to_string(cr.id.value)),
                   fmt(cr.demand, 4), fmt(cr.min_latency, 6),
                   fmt(cr.avg_latency, 6),
                   fmt_sci(cr.gap_share),
                   fmt_int(static_cast<long long>(cr.active_paths))});
  }
  os << table.to_string();
  return os.str();
}

std::string describe_flow(const Instance& instance,
                          std::span<const double> path_flow) {
  return format_report(instance, make_report(instance, path_flow));
}

}  // namespace staleflow
