#include "core/sampling.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace staleflow {
namespace {

void check_out_size(const Commodity& commodity, std::span<double> out) {
  if (out.size() != commodity.paths.size()) {
    throw std::invalid_argument(
        "SamplingRule::distribution: out size != commodity path count");
  }
}

}  // namespace

void UniformSampling::distribution(const Instance&,
                                   const Commodity& commodity,
                                   std::span<const double>,
                                   std::span<const double>,
                                   std::span<double> out) const {
  check_out_size(commodity, out);
  const double p = 1.0 / static_cast<double>(commodity.paths.size());
  std::fill(out.begin(), out.end(), p);
}

ProportionalSampling::ProportionalSampling(double uniform_floor)
    : floor_(uniform_floor) {
  if (uniform_floor < 0.0 || uniform_floor > 1.0) {
    throw std::invalid_argument(
        "ProportionalSampling: uniform_floor must be in [0, 1]");
  }
}

void ProportionalSampling::distribution(const Instance&,
                                        const Commodity& commodity,
                                        std::span<const double> board_path_flow,
                                        std::span<const double>,
                                        std::span<double> out) const {
  check_out_size(commodity, out);
  const double uniform_share =
      floor_ / static_cast<double>(commodity.paths.size());
  for (std::size_t j = 0; j < commodity.paths.size(); ++j) {
    const double share =
        std::max(board_path_flow[commodity.paths[j].index()], 0.0) /
        commodity.demand;
    out[j] = (1.0 - floor_) * share + uniform_share;
  }
}

LogitSampling::LogitSampling(double c) : c_(c) {
  if (!(c > 0.0)) {
    throw std::invalid_argument("LogitSampling: c must be > 0");
  }
}

void LogitSampling::distribution(const Instance&, const Commodity& commodity,
                                 std::span<const double>,
                                 std::span<const double> board_path_latency,
                                 std::span<double> out) const {
  check_out_size(commodity, out);
  // Shift by the minimum latency for numerical stability; the softmax is
  // shift-invariant.
  double lo = board_path_latency[commodity.paths.front().index()];
  for (const PathId p : commodity.paths) {
    lo = std::min(lo, board_path_latency[p.index()]);
  }
  double total = 0.0;
  for (std::size_t j = 0; j < commodity.paths.size(); ++j) {
    out[j] = std::exp(-c_ * (board_path_latency[commodity.paths[j].index()] -
                             lo));
    total += out[j];
  }
  for (double& v : out) v /= total;
}

std::string LogitSampling::name() const {
  std::ostringstream os;
  os << "logit(c=" << c_ << ")";
  return os.str();
}

SamplingPtr uniform_sampling() {
  return std::make_unique<UniformSampling>();
}

SamplingPtr proportional_sampling(double uniform_floor) {
  return std::make_unique<ProportionalSampling>(uniform_floor);
}

SamplingPtr logit_sampling(double c) {
  return std::make_unique<LogitSampling>(c);
}

}  // namespace staleflow
