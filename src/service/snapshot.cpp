#include "service/snapshot.h"

namespace staleflow {

BoardSnapshot::BoardSnapshot(DeferCdf, const Instance& instance,
                             const Policy& policy, std::uint64_t epoch,
                             double now, std::span<const double> path_flow)
    : instance_(&instance),
      policy_(&policy),
      epoch_(epoch),
      board_(instance),
      cdf_(instance.commodity_count()),
      lanes_(instance.commodity_count()) {
  board_.post(now, path_flow);
  // Local-order latencies, commodity after commodity, so a lane's
  // latency[k] belongs to its paths[k]. Every path belongs to exactly one
  // commodity, so path_count() slots hold them all.
  const std::span<const double> latency = board_.path_latency();
  lane_latency_.resize(instance.path_count());
  double* out = lane_latency_.data();
  for (std::size_t c = 0; c < lanes_.size(); ++c) {
    const Commodity& commodity = instance.commodity(CommodityId{c});
    lanes_[c].latency = out;
    lanes_[c].paths = commodity.paths.data();
    for (const PathId p : commodity.paths) *out++ = latency[p.index()];
  }
}

BoardSnapshot::BoardSnapshot(const Instance& instance, const Policy& policy,
                             std::uint64_t epoch, double now,
                             std::span<const double> path_flow)
    : BoardSnapshot(DeferCdf{}, instance, policy, epoch, now, path_flow) {
  for (std::size_t c = 0; c < instance.commodity_count(); ++c) {
    build_cdf(CommodityId{c});
  }
}

void BoardSnapshot::build_cdf(CommodityId c) {
  sampling_cdf(*policy_, *instance_, instance_->commodity(c),
               board_.path_flow(), board_.path_latency(), cdf_[c.index()]);
  lanes_[c.index()].cdf = cdf_[c.index()].view();
}

}  // namespace staleflow
