#include "core/bulletin_board.h"

#include <stdexcept>
#include <utility>

namespace staleflow {

BulletinBoard::BulletinBoard(const Instance& instance)
    : instance_(&instance),
      path_flow_(instance.path_count(), 0.0),
      edge_latency_(instance.edge_count(), 0.0),
      path_latency_(instance.path_count(), 0.0) {}

void BulletinBoard::post(double now, std::span<const double> path_flow) {
  if (path_flow.size() != instance_->path_count()) {
    throw std::invalid_argument("BulletinBoard::post: wrong path count");
  }
  posted_at_ = now;
  has_data_ = true;
  path_flow_.assign(path_flow.begin(), path_flow.end());
  FlowEvaluation eval = evaluate(*instance_, path_flow);
  edge_latency_ = std::move(eval.edge_latency);
  path_latency_ = std::move(eval.path_latency);
}

}  // namespace staleflow
