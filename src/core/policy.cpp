#include "core/policy.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace staleflow {

Policy::Policy(SamplingPtr sampling, MigrationPtr migration)
    : sampling_(std::move(sampling)), migration_(std::move(migration)) {
  if (sampling_ == nullptr || migration_ == nullptr) {
    throw std::invalid_argument("Policy: rules must be non-null");
  }
}

std::string Policy::name() const {
  return sampling_->name() + " + " + migration_->name();
}

Policy make_replicator_policy(const Instance& instance,
                              double uniform_floor) {
  return Policy(proportional_sampling(uniform_floor),
                linear_migration(instance.max_latency()));
}

Policy make_uniform_linear_policy(const Instance& instance) {
  return Policy(uniform_sampling(),
                linear_migration(instance.max_latency()));
}

Policy make_alpha_policy(double alpha) {
  return Policy(uniform_sampling(), alpha_capped_migration(alpha));
}

Policy make_logit_policy(const Instance& instance, double c) {
  return Policy(logit_sampling(c), linear_migration(instance.max_latency()));
}

Policy make_naive_better_response_policy() {
  return Policy(uniform_sampling(), better_response_migration());
}

Policy make_relative_slack_policy(double shift) {
  return Policy(proportional_sampling(), relative_slack_migration(shift));
}

Policy make_safe_policy(const Instance& instance, double update_period) {
  if (!(update_period > 0.0)) {
    throw std::invalid_argument(
        "make_safe_policy: update_period must be > 0");
  }
  const double d = static_cast<double>(instance.max_path_length());
  const double beta = instance.max_slope();
  if (d == 0.0 || beta == 0.0) {
    throw std::invalid_argument(
        "make_safe_policy: instance has no slope bound; every policy is "
        "safe, pick one explicitly");
  }
  const double alpha = 1.0 / (4.0 * d * beta * update_period);
  return Policy(uniform_sampling(), alpha_capped_migration(alpha));
}

void sampling_cdf(const Policy& policy, const Instance& instance,
                  const Commodity& commodity,
                  std::span<const double> board_path_flow,
                  std::span<const double> board_path_latency,
                  GuidedCdf& out) {
  std::vector<double>& cdf = out.cdf_;
  cdf.resize(commodity.paths.size());
  policy.sampling().distribution(instance, commodity, board_path_flow,
                                 board_path_latency, cdf);
  double acc = 0.0;
  for (double& v : cdf) {
    acc += v;
    v = acc;
  }
  // Defend against round-off in the final bucket. (Every commodity has
  // at least one path; InstanceBuilder rejects one with none.)
  cdf.back() = std::max(cdf.back(), 1.0);

  // One pass over the buckets and the CDF together: guide[k] is the
  // first j with cdf[j] >= k / G, capped at the last path.
  const std::size_t last = cdf.size() - 1;
  const std::size_t buckets = std::bit_ceil(2 * cdf.size());
  const double width = 1.0 / static_cast<double>(buckets);
  out.guide_.resize(buckets);
  std::size_t j = 0;
  for (std::size_t k = 0; k < buckets; ++k) {
    const double edge = static_cast<double>(k) * width;
    while (j < last && cdf[j] < edge) ++j;
    out.guide_[k] = static_cast<std::uint32_t>(j);
  }
  out.buckets_ = static_cast<double>(buckets);
  out.last_ = last;
}

std::size_t sample_from_cdf(std::span<const double> cdf, Rng& rng) {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::size_t>(std::min<std::ptrdiff_t>(
      it - cdf.begin(), static_cast<std::ptrdiff_t>(cdf.size()) - 1));
}

}  // namespace staleflow
