// Sampling rules: step (1) of the paper's two-step rerouting policies.
//
// When an agent is activated it samples a candidate path Q of its own
// commodity with probability sigma_PQ(f̂), where f̂ is the bulletin-board
// flow. All rules here are origin-independent (sigma_PQ == sigma_Q), which
// covers the paper's uniform, proportional and smoothed-best-response
// (logit) samplers; the interface hands out the whole distribution over a
// commodity's paths at once.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "net/instance.h"

namespace staleflow {

/// Distribution over a commodity's paths used for sampling candidates.
///
/// Contract (Section 2.2): the probabilities must be a continuous function
/// of the board flow and strictly positive on every path, otherwise
/// convergence to Wardrop equilibria cannot be guaranteed.
class SamplingRule {
 public:
  virtual ~SamplingRule() = default;

  /// Writes the sampling probability of each path of `commodity` into
  /// `out` (indexed like commodity.paths; out.size() must equal
  /// commodity.paths.size()). `board_path_flow` / `board_path_latency`
  /// are the bulletin-board values for *all* paths of the instance.
  virtual void distribution(const Instance& instance,
                            const Commodity& commodity,
                            std::span<const double> board_path_flow,
                            std::span<const double> board_path_latency,
                            std::span<double> out) const = 0;

  virtual std::string name() const = 0;
};

/// sigma_Q = 1 / |P_i| (the Theorem 6 rule).
class UniformSampling final : public SamplingRule {
 public:
  void distribution(const Instance& instance, const Commodity& commodity,
                    std::span<const double> board_path_flow,
                    std::span<const double> board_path_latency,
                    std::span<double> out) const override;
  std::string name() const override { return "uniform"; }
};

/// sigma_Q = f̂_Q / r_i (the Theorem 7 / replicator rule). To preserve
/// strict positivity (required for convergence from arbitrary starts) a
/// small uniform floor can be mixed in: sigma_Q = (1-floor)*f̂_Q/r_i +
/// floor/|P_i|. The paper's analysis uses floor = 0.
class ProportionalSampling final : public SamplingRule {
 public:
  explicit ProportionalSampling(double uniform_floor = 0.0);
  void distribution(const Instance& instance, const Commodity& commodity,
                    std::span<const double> board_path_flow,
                    std::span<const double> board_path_latency,
                    std::span<double> out) const override;
  std::string name() const override { return "proportional"; }

 private:
  double floor_;
};

/// sigma_Q = exp(-c * l̂_Q) / sum_Q' exp(-c * l̂_Q') — the paper's smoothed
/// best response (Section 2.2). Large c concentrates on minimum-latency
/// paths and approximates best response.
class LogitSampling final : public SamplingRule {
 public:
  explicit LogitSampling(double c);
  void distribution(const Instance& instance, const Commodity& commodity,
                    std::span<const double> board_path_flow,
                    std::span<const double> board_path_latency,
                    std::span<double> out) const override;
  std::string name() const override;

 private:
  double c_;
};

using SamplingPtr = std::unique_ptr<const SamplingRule>;

SamplingPtr uniform_sampling();
SamplingPtr proportional_sampling(double uniform_floor = 0.0);
SamplingPtr logit_sampling(double c);

}  // namespace staleflow
