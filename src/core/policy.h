// A rerouting policy = sampling rule + migration rule (Section 2.2), with
// factories for the combinations the paper analyses.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/migration.h"
#include "core/sampling.h"
#include "net/instance.h"
#include "util/rng.h"

namespace staleflow {

/// Two-step rerouting policy. Immutable after construction; shared between
/// simulators via const reference.
class Policy {
 public:
  Policy(SamplingPtr sampling, MigrationPtr migration);

  const SamplingRule& sampling() const noexcept { return *sampling_; }
  const MigrationRule& migration() const noexcept { return *migration_; }

  /// e.g. "proportional + linear(l_max=2)".
  std::string name() const;

  /// alpha of the migration rule, or nullopt for non-smooth rules.
  std::optional<double> smoothness() const {
    return migration_->smoothness();
  }

 private:
  SamplingPtr sampling_;
  MigrationPtr migration_;
};

/// Replicator dynamics: proportional sampling + linear migration with
/// scale l_max taken from the instance (Theorem 7's policy).
Policy make_replicator_policy(const Instance& instance,
                              double uniform_floor = 0.0);

/// Uniform sampling + linear migration (Theorem 6's policy).
Policy make_uniform_linear_policy(const Instance& instance);

/// Uniform sampling + min(1, alpha * gain) migration: directly exposes the
/// smoothness parameter for Corollary 5 sweeps.
Policy make_alpha_policy(double alpha);

/// Smoothed best response: logit sampling with parameter c + linear
/// migration.
Policy make_logit_policy(const Instance& instance, double c);

/// Naive baseline: uniform sampling + better-response migration. Not
/// alpha-smooth; oscillates under staleness.
Policy make_naive_better_response_policy();

/// Extension ([10], the paper's conclusion): proportional sampling +
/// relative-slack migration. Its aggressiveness does not degrade with the
/// maximum slope beta; with shift > 0 it is (1/shift)-smooth and covered
/// by Corollary 5.
Policy make_relative_slack_policy(double shift = 0.0);

/// The Corollary 5 recipe inverted: given the bulletin-board period T the
/// deployment must live with, returns the most aggressive uniform-sampling
/// policy that is still provably convergent, i.e. alpha-capped migration
/// with alpha = 1/(4 * D * beta * T). Throws std::invalid_argument if
/// T <= 0 or the instance has zero slope/path length (any policy is safe
/// then — no finite alpha is implied).
Policy make_safe_policy(const Instance& instance, double update_period);

/// A commodity's cumulative sampling distribution together with a guide
/// table that turns the candidate draw into an O(1) expected-time lookup
/// (the indexed search of Chen & Asau, 1974; Devroye, *Non-Uniform Random
/// Variate Generation*, Sec. III.2.4). The lookup is exact: for every u it
/// returns the index sample_from_cdf()'s lower_bound returns, so guided
/// draws leave every digest unchanged. Built by sampling_cdf().
class GuidedCdf {
 public:
  /// The cumulative distribution over the commodity's local path list.
  std::span<const double> values() const noexcept { return cdf_; }

  /// Entry k is the first index j with values()[j] >= k / G, capped at
  /// size - 1. G = guide().size() is the smallest power of two >= 2 *
  /// size(), so both u * G and k / G are exact in double.
  std::span<const std::uint32_t> guide() const noexcept { return guide_; }

  /// The lookup's four words, trivially copyable so a serving loop can
  /// hold them in registers. Valid while the GuidedCdf lives and is not
  /// rebuilt.
  struct View {
    const double* cdf = nullptr;
    const std::uint32_t* guide = nullptr;
    double buckets = 0.0;   // G
    std::size_t last = 0;   // size - 1

    /// First index j with cdf[j] >= u, clamped to size - 1: the index
    /// sample_from_cdf() returns for the same u. Starts at the guide
    /// entry of u's bucket and walks forward; the walk visits the paths
    /// whose CDF steps fall inside that bucket, fewer than one on
    /// average. Requires u in [0, 1) and a non-empty distribution.
    std::size_t index_of(double u) const noexcept {
      std::size_t j = guide[static_cast<std::size_t>(u * buckets)];
      while (j < last && cdf[j] < u) ++j;
      return j;
    }
  };

  View view() const noexcept {
    return {cdf_.data(), guide_.data(), buckets_, last_};
  }

  /// view().index_of(u).
  std::size_t index_of(double u) const noexcept {
    return view().index_of(u);
  }

  /// Draws a local path index: one uniform variate, one guided lookup.
  std::size_t sample(Rng& rng) const noexcept {
    return view().index_of(rng.uniform());
  }

 private:
  friend void sampling_cdf(const Policy& policy, const Instance& instance,
                           const Commodity& commodity,
                           std::span<const double> board_path_flow,
                           std::span<const double> board_path_latency,
                           GuidedCdf& out);

  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
  double buckets_ = 0.0;  // G
  std::size_t last_ = 0;  // size - 1
};

static_assert(std::is_trivially_copyable_v<GuidedCdf::View>);

/// Cumulative sampling distribution of `policy` over `commodity`'s local
/// path list, evaluated against bulletin-board values, and its guide
/// table. Sizes `out` to the commodity's path count; the final bucket is
/// clamped to >= 1 so that round-off can never push a uniform draw past
/// the end. Candidates are then drawn with GuidedCdf::sample() — the
/// hot-path form shared by the finite-population simulator and the route
/// service.
void sampling_cdf(const Policy& policy, const Instance& instance,
                  const Commodity& commodity,
                  std::span<const double> board_path_flow,
                  std::span<const double> board_path_latency,
                  GuidedCdf& out);

/// Draws a local path index from a cumulative distribution: one uniform
/// variate, one binary search (std::lower_bound), end-clamped against
/// round-off. The reference GuidedCdf::sample() must equal draw for draw;
/// the serving paths use the guided form. Requires a non-empty cdf.
std::size_t sample_from_cdf(std::span<const double> cdf, Rng& rng);

}  // namespace staleflow
