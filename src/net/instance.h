// Wardrop routing instances: network + latencies + commodities + path sets.
//
// An instance fixes everything about the game except the flow: the directed
// multigraph, one latency function per edge, and k commodities (source,
// sink, demand, admissible path set P_i). Demands are normalised so that
// sum_i r_i = 1 as in Section 2.1 of the paper.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/ids.h"
#include "graph/path.h"
#include "latency/latency_function.h"

namespace staleflow {

/// One origin-destination demand. `paths` indexes into the instance-wide
/// path list; the set is contiguous by construction.
struct Commodity {
  VertexId source;
  VertexId sink;
  double demand = 0.0;
  std::vector<PathId> paths;
};

class InstanceBuilder;

/// Immutable Wardrop instance. Construct through InstanceBuilder.
///
/// The network parameters the paper's bounds depend on are precomputed:
///   * D        = max path length                    (max_path_length())
///   * beta     = max slope of any latency function  (max_slope())
///   * ell_max  = max possible path latency          (max_latency())
class Instance {
 public:
  const Graph& graph() const noexcept { return graph_; }

  std::size_t edge_count() const noexcept { return graph_.edge_count(); }
  std::size_t path_count() const noexcept { return paths_.size(); }
  std::size_t commodity_count() const noexcept { return commodities_.size(); }

  const LatencyFunction& latency(EdgeId e) const;
  const Path& path(PathId p) const;
  const Commodity& commodity(CommodityId c) const {
    if (!c.valid() || c.index() >= commodities_.size()) {
      throw std::out_of_range("Instance::commodity: unknown commodity id");
    }
    return commodities_[c.index()];
  }

  /// Commodity that owns path `p`.
  CommodityId commodity_of(PathId p) const;

  /// D: maximum number of edges on any admissible path.
  std::size_t max_path_length() const noexcept { return max_path_length_; }

  /// beta: upper bound on l_e'(x) over all edges e and x in [0, 1].
  double max_slope() const noexcept { return max_slope_; }

  /// ell_max: upper bound on any path latency, max_P sum_{e in P} l_e(1).
  double max_latency() const noexcept { return max_latency_; }

  /// The paper's safe update period bound T = 1/(4 * D * alpha * beta) from
  /// Lemma 4, for a given migration smoothness alpha. Returns +infinity when
  /// beta == 0 (latencies constant: any period is safe).
  double safe_update_period(double alpha) const;

  /// One-line summary for logs and bench headers.
  std::string describe() const;

 private:
  friend class InstanceBuilder;
  Instance() = default;

  Graph graph_;
  std::vector<LatencyPtr> latencies_;  // by EdgeId
  std::vector<Path> paths_;            // global list, grouped by commodity
  std::vector<CommodityId> path_owner_;
  std::vector<Commodity> commodities_;
  std::size_t max_path_length_ = 0;
  double max_slope_ = 0.0;
  double max_latency_ = 0.0;
};

/// Builds an Instance step by step, then validates and freezes it.
///
/// Usage:
///   InstanceBuilder b{std::move(graph)};
///   b.set_latency(e0, affine(0.0, 1.0));
///   b.add_commodity(s, t, 1.0);               // auto-enumerated paths
///   Instance inst = std::move(b).build();
class InstanceBuilder {
 public:
  explicit InstanceBuilder(Graph graph);

  /// Assigns the latency function of edge `e` (must be set for every edge).
  InstanceBuilder& set_latency(EdgeId e, LatencyPtr fn);

  /// Adds a commodity whose path set is all simple source->sink paths.
  /// `demand` must be > 0 (demands are normalised to sum 1 at build()).
  InstanceBuilder& add_commodity(VertexId source, VertexId sink,
                                 double demand);

  /// Adds a commodity with an explicit path set (each path must run from
  /// `source` to `sink`).
  InstanceBuilder& add_commodity(VertexId source, VertexId sink,
                                 double demand,
                                 std::vector<std::vector<EdgeId>> paths);

  /// Validates (all latencies set, >= 1 commodity, every commodity has
  /// >= 1 path, contract check on each latency) and returns the instance.
  /// Throws std::logic_error / std::invalid_argument on violations.
  Instance build() &&;

 private:
  struct PendingCommodity {
    VertexId source;
    VertexId sink;
    double demand;
    std::vector<std::vector<EdgeId>> explicit_paths;  // empty => enumerate
  };

  Graph graph_;
  std::vector<LatencyPtr> latencies_;
  std::vector<PendingCommodity> pending_;
  bool consumed_ = false;
};

}  // namespace staleflow
