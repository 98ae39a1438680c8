#include "graph/graph.h"

#include <stdexcept>

namespace staleflow {

Graph::Graph(std::size_t n) : out_edges_(n) {}

VertexId Graph::add_vertex() {
  out_edges_.emplace_back();
  return VertexId{vertex_count() - 1};
}

EdgeId Graph::add_edge(VertexId from, VertexId to) {
  check_vertex(from);
  check_vertex(to);
  const EdgeId id{edge_count()};
  edges_.push_back(Edge{from, to});
  out_edges_[from.index()].push_back(id);
  return id;
}

const Graph::Edge& Graph::edge(EdgeId e) const {
  if (!contains(e)) throw std::out_of_range("Graph::edge: unknown edge id");
  return edges_[e.index()];
}

std::span<const EdgeId> Graph::out_edges(VertexId v) const {
  check_vertex(v);
  return out_edges_[v.index()];
}

bool Graph::is_acyclic() const {
  // Kahn's algorithm: the graph is acyclic iff all vertices get popped.
  std::vector<std::size_t> indegree(vertex_count());
  for (const Edge& e : edges_) ++indegree[e.to.index()];
  std::vector<VertexId> queue;
  for (std::size_t v = 0; v < vertex_count(); ++v) {
    if (indegree[v] == 0) queue.push_back(VertexId{v});
  }
  std::size_t popped = 0;
  while (!queue.empty()) {
    const VertexId v = queue.back();
    queue.pop_back();
    ++popped;
    for (const EdgeId e : out_edges_[v.index()]) {
      const VertexId w = edges_[e.index()].to;
      if (--indegree[w.index()] == 0) queue.push_back(w);
    }
  }
  return popped == vertex_count();
}

void Graph::check_vertex(VertexId v) const {
  if (!contains(v)) {
    throw std::out_of_range("Graph: unknown vertex id");
  }
}

}  // namespace staleflow
