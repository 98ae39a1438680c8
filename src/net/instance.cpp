#include "net/instance.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "graph/path_enumeration.h"

namespace staleflow {

const LatencyFunction& Instance::latency(EdgeId e) const {
  if (!e.valid() || e.index() >= latencies_.size()) {
    throw std::out_of_range("Instance::latency: unknown edge id");
  }
  return *latencies_[e.index()];
}

const Path& Instance::path(PathId p) const {
  if (!p.valid() || p.index() >= paths_.size()) {
    throw std::out_of_range("Instance::path: unknown path id");
  }
  return paths_[p.index()];
}

CommodityId Instance::commodity_of(PathId p) const {
  if (!p.valid() || p.index() >= path_owner_.size()) {
    throw std::out_of_range("Instance::commodity_of: unknown path id");
  }
  return path_owner_[p.index()];
}

double Instance::safe_update_period(double alpha) const {
  if (!(alpha > 0.0)) {
    throw std::invalid_argument(
        "Instance::safe_update_period: alpha must be > 0");
  }
  const double d = static_cast<double>(max_path_length_);
  if (max_slope_ == 0.0 || d == 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return 1.0 / (4.0 * d * alpha * max_slope_);
}

std::string Instance::describe() const {
  std::ostringstream os;
  os << "Instance(V=" << graph_.vertex_count() << ", E=" << edge_count()
     << ", k=" << commodity_count() << ", |P|=" << path_count()
     << ", D=" << max_path_length_ << ", beta=" << max_slope_
     << ", ell_max=" << max_latency_ << ")";
  return os.str();
}

InstanceBuilder::InstanceBuilder(Graph graph)
    : graph_(std::move(graph)), latencies_(graph_.edge_count()) {}

InstanceBuilder& InstanceBuilder::set_latency(EdgeId e, LatencyPtr fn) {
  if (!graph_.contains(e)) {
    throw std::out_of_range("InstanceBuilder::set_latency: unknown edge");
  }
  if (fn == nullptr) {
    throw std::invalid_argument(
        "InstanceBuilder::set_latency: null latency function");
  }
  latencies_[e.index()] = std::move(fn);
  return *this;
}

InstanceBuilder& InstanceBuilder::add_commodity(VertexId source,
                                                VertexId sink,
                                                double demand) {
  return add_commodity(source, sink, demand, {});
}

InstanceBuilder& InstanceBuilder::add_commodity(
    VertexId source, VertexId sink, double demand,
    std::vector<std::vector<EdgeId>> paths) {
  if (!graph_.contains(source) || !graph_.contains(sink)) {
    throw std::out_of_range("InstanceBuilder::add_commodity: unknown vertex");
  }
  if (!(demand > 0.0)) {
    throw std::invalid_argument(
        "InstanceBuilder::add_commodity: demand must be > 0");
  }
  pending_.push_back(
      PendingCommodity{source, sink, demand, std::move(paths)});
  return *this;
}

Instance InstanceBuilder::build() && {
  if (consumed_) {
    throw std::logic_error("InstanceBuilder::build: already consumed");
  }
  consumed_ = true;

  for (std::size_t e = 0; e < latencies_.size(); ++e) {
    if (latencies_[e] == nullptr) {
      throw std::logic_error("InstanceBuilder::build: edge e" +
                             std::to_string(e) + " has no latency function");
    }
  }
  if (pending_.empty()) {
    throw std::logic_error("InstanceBuilder::build: no commodities");
  }

  Instance inst;
  inst.graph_ = std::move(graph_);
  inst.latencies_ = std::move(latencies_);

  double total_demand = 0.0;
  for (const auto& pc : pending_) total_demand += pc.demand;

  for (const auto& pc : pending_) {
    Commodity commodity;
    commodity.source = pc.source;
    commodity.sink = pc.sink;
    commodity.demand = pc.demand / total_demand;  // normalise sum to 1

    std::vector<Path> paths;
    if (pc.explicit_paths.empty()) {
      paths = enumerate_simple_paths(inst.graph_, pc.source, pc.sink);
      if (paths.empty()) {
        throw std::logic_error(
            "InstanceBuilder::build: commodity sink unreachable from source");
      }
    } else {
      paths.reserve(pc.explicit_paths.size());
      for (const auto& edges : pc.explicit_paths) {
        Path path(inst.graph_, edges);
        if (path.source() != pc.source || path.sink() != pc.sink) {
          throw std::invalid_argument(
              "InstanceBuilder::build: explicit path endpoints do not match "
              "the commodity");
        }
        paths.push_back(std::move(path));
      }
    }

    const CommodityId cid{inst.commodities_.size()};
    for (auto& path : paths) {
      const PathId pid{inst.paths_.size()};
      inst.max_path_length_ = std::max(inst.max_path_length_, path.length());
      inst.paths_.push_back(std::move(path));
      inst.path_owner_.push_back(cid);
      commodity.paths.push_back(pid);
    }
    inst.commodities_.push_back(std::move(commodity));
  }

  for (const auto& fn : inst.latencies_) {
    inst.max_slope_ = std::max(inst.max_slope_, fn->max_slope(1.0));
  }
  for (const auto& path : inst.paths_) {
    double worst = 0.0;
    for (const EdgeId e : path.edges()) {
      worst += inst.latencies_[e.index()]->value(1.0);
    }
    inst.max_latency_ = std::max(inst.max_latency_, worst);
  }
  return inst;
}

}  // namespace staleflow
