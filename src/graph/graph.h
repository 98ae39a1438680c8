// Directed finite multigraph — the network substrate of the Wardrop model.
#pragma once

#include <span>
#include <vector>

#include "graph/ids.h"

namespace staleflow {

/// A directed multigraph G = (V, E). Parallel edges and self-loops are
/// allowed (the paper's canonical example is two parallel links).
///
/// Vertices and edges are created once and never removed; ids are dense
/// indices, which lets all per-edge data elsewhere in the library live in
/// flat vectors.
class Graph {
 public:
  struct Edge {
    VertexId from;
    VertexId to;
  };

  Graph() = default;

  /// Creates a graph with `n` isolated vertices.
  explicit Graph(std::size_t n);

  /// Adds a vertex and returns its id.
  VertexId add_vertex();

  /// Adds a directed edge. Both endpoints must already exist.
  EdgeId add_edge(VertexId from, VertexId to);

  std::size_t vertex_count() const noexcept { return out_edges_.size(); }
  std::size_t edge_count() const noexcept { return edges_.size(); }

  bool contains(VertexId v) const noexcept {
    return v.valid() && v.index() < vertex_count();
  }
  bool contains(EdgeId e) const noexcept {
    return e.valid() && e.index() < edge_count();
  }

  /// Endpoints of an edge. Throws std::out_of_range for an unknown id.
  const Edge& edge(EdgeId e) const;
  VertexId source(EdgeId e) const { return edge(e).from; }
  VertexId target(EdgeId e) const { return edge(e).to; }

  /// Outgoing edge list of a vertex.
  std::span<const EdgeId> out_edges(VertexId v) const;

  /// True if the graph contains no directed cycle.
  bool is_acyclic() const;

 private:
  void check_vertex(VertexId v) const;

  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_edges_;
};

}  // namespace staleflow
