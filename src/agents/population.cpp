#include "agents/population.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace staleflow {
namespace {

/// Allocates `num_clients` across commodities proportionally to demand,
/// guaranteeing at least one client per commodity.
std::vector<std::size_t> allocate_clients(const Instance& instance,
                                          std::size_t num_clients) {
  const std::size_t k = instance.commodity_count();
  if (num_clients < k) {
    throw std::invalid_argument(
        "Population: need at least one client per commodity");
  }
  std::vector<std::size_t> counts(k, 1);
  std::size_t assigned = k;
  for (std::size_t c = 0; c < k && assigned < num_clients; ++c) {
    const double demand = instance.commodity(CommodityId{c}).demand;
    const auto extra = static_cast<std::size_t>(
        std::floor(demand * static_cast<double>(num_clients)));
    const std::size_t grant = std::min(extra > 0 ? extra - 1 : 0,
                                       num_clients - assigned);
    counts[c] += grant;
    assigned += grant;
  }
  // Distribute any remainder round-robin.
  for (std::size_t c = 0; assigned < num_clients; c = (c + 1) % k) {
    ++counts[c];
    ++assigned;
  }
  return counts;
}

/// Initial path counts per commodity approximating the target flow.
std::vector<std::size_t> initial_counts(const Commodity& commodity,
                                        std::span<const double> flow,
                                        std::size_t clients) {
  const std::size_t m = commodity.paths.size();
  std::vector<std::size_t> counts(m, 0);
  std::size_t assigned = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const double share =
        std::max(flow[commodity.paths[j].index()], 0.0) / commodity.demand;
    counts[j] = static_cast<std::size_t>(
        std::floor(share * static_cast<double>(clients)));
    assigned += counts[j];
  }
  // Greedily hand out the rounding remainder to the largest fractional
  // parts (deterministic: first-come order is fine for validation).
  std::size_t j = 0;
  while (assigned < clients) {
    const double share =
        std::max(flow[commodity.paths[j].index()], 0.0) / commodity.demand;
    const double frac = share * static_cast<double>(clients) -
                        std::floor(share * static_cast<double>(clients));
    if (frac > 0.0 || assigned + (m - j) >= clients) {
      ++counts[j];
      ++assigned;
    }
    j = (j + 1) % m;
  }
  return counts;
}

}  // namespace

Population::Population(const Instance& instance, std::size_t num_clients,
                       std::span<const double> target)
    : instance_(&instance),
      first_client_(instance.commodity_count() + 1, 0),
      flow_per_client_(instance.commodity_count(), 0.0),
      empirical_(instance.path_count(), 0.0) {
  const std::vector<std::size_t> clients =
      allocate_clients(instance, num_clients);
  local_path_.reserve(num_clients);
  const std::size_t k = instance.commodity_count();
  for (std::size_t c = 0; c < k; ++c) {
    const Commodity& commodity = instance.commodity(CommodityId{c});
    const std::size_t n_c = clients[c];
    first_client_[c + 1] = first_client_[c] + n_c;
    flow_per_client_[c] = commodity.demand / static_cast<double>(n_c);
    const std::vector<std::size_t> counts =
        initial_counts(commodity, target, n_c);
    for (std::size_t j = 0; j < counts.size(); ++j) {
      local_path_.insert(local_path_.end(), counts[j],
                         static_cast<std::uint32_t>(j));
      empirical_[commodity.paths[j].index()] +=
          static_cast<double>(counts[j]) * flow_per_client_[c];
    }
  }
}

void Population::migrate(std::size_t client, std::size_t target) {
  const CommodityId c = commodity_of(client);
  const Commodity& commodity = instance_->commodity(c);
  const double flow = flow_per_client_[c.index()];
  empirical_[commodity.paths[local_path_[client]].index()] -= flow;
  empirical_[commodity.paths[target].index()] += flow;
  local_path_[client] = static_cast<std::uint32_t>(target);
}

}  // namespace staleflow
