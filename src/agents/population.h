// A finite client population partitioned across commodities.
//
// The offline AgentSimulator and the online RouteServer simulate the same
// pre-limit object: N discrete clients, each pinned to one commodity,
// currently sitting on one of its paths and carrying demand_i / N_i flow.
// This class is that shared state — the allocation of clients to
// commodities (proportional to demand, at least one each), the initial
// path assignment approximating a target flow, and the induced empirical
// path-flow vector.
//
// Client ids enumerate commodities in order, so commodity i owns the
// contiguous id range [first_client_[i], first_client_[i + 1]). The only
// per-client word is the local path index; a client's commodity is
// derived from the C + 1 offsets, never stored.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/instance.h"

namespace staleflow {

class Population {
 public:
  /// Bytes held per client: its local path index. The commodity is
  /// derived from per-commodity offsets, which cost O(C), not O(N).
  static constexpr std::size_t kBytesPerClient = sizeof(std::uint32_t);

  /// Allocates `num_clients` across commodities proportionally to demand
  /// (at least one each; throws std::invalid_argument when num_clients <
  /// commodity_count()) and assigns each client to a path so the empirical
  /// flow approximates `target` (counts are rounded; rounding drift is
  /// corrected greedily). Client ids enumerate commodities in order, then
  /// paths in local order — the layout is deterministic.
  Population(const Instance& instance, std::size_t num_clients,
             std::span<const double> target);

  std::size_t size() const noexcept { return local_path_.size(); }

  /// The client-to-commodity lookup over the C + 1 offsets, trivially
  /// copyable so a serving loop can hold it in registers. Valid while
  /// the population lives.
  struct CommodityMap {
    const std::size_t* first;  // C + 1 offsets
    std::size_t commodities;   // C

    /// Index of the commodity whose id range holds `client` (< the
    /// client count). A fixed-step binary search: its trip count depends
    /// on C alone (none for C = 1) and each step is a conditional move,
    /// so no branch depends on the client.
    std::size_t operator()(std::size_t client) const noexcept {
      const std::size_t* base = first;
      for (std::size_t n = commodities; n > 1;) {
        const std::size_t half = n / 2;
        base = base[half] <= client ? base + half : base;
        n -= half;
      }
      return static_cast<std::size_t>(base - first);
    }
  };

  CommodityMap commodity_map() const noexcept {
    return {first_client_.data(), first_client_.size() - 1};
  }

  /// The commodity whose id range holds `client`.
  CommodityId commodity_of(std::size_t client) const noexcept {
    return CommodityId{commodity_map()(client)};
  }

  /// Index into the client's commodity path list.
  std::size_t local_path(std::size_t client) const {
    return local_path_[client];
  }

  /// Every client's local path index, by client id.
  std::span<const std::uint32_t> local_paths() const noexcept {
    return local_path_;
  }

  /// The same, writable: what reassign() writes, for a serving loop to
  /// hold in a local (same contract: distinct clients may be written from
  /// distinct threads concurrently).
  std::span<std::uint32_t> local_paths() noexcept { return local_path_; }

  /// Flow volume each client of commodity `c` carries (demand_c / N_c).
  double flow_per_client(CommodityId c) const {
    return flow_per_client_[c.index()];
  }

  /// First client id of commodity `c`; clients_of(c) ids follow it.
  std::size_t first_client(CommodityId c) const {
    return first_client_[c.index()];
  }

  std::size_t clients_of(CommodityId c) const {
    return first_client_[c.index() + 1] - first_client_[c.index()];
  }

  /// Empirical path flow induced by the assignment. Reflects migrate()
  /// calls only — reassign() leaves it to the caller's own accounting.
  std::span<const double> empirical_flow() const noexcept {
    return empirical_;
  }

  /// Moves the client to local path `target` and updates the empirical
  /// flow (single-threaded use: AgentSimulator).
  void migrate(std::size_t client, std::size_t target);

  /// Moves the client without touching the shared empirical flow; the
  /// caller accounts the flow deltas itself. Distinct clients may be
  /// reassigned from distinct threads concurrently (sharded server mode).
  void reassign(std::size_t client, std::size_t target) {
    local_path_[client] = static_cast<std::uint32_t>(target);
  }

 private:
  const Instance* instance_;
  std::vector<std::size_t> first_client_;  // by commodity, C + 1 offsets
  std::vector<std::uint32_t> local_path_;  // by client
  std::vector<double> flow_per_client_;    // by commodity
  std::vector<double> empirical_;          // by path
};

}  // namespace staleflow
