// Tests for sampling rules, migration rules, alpha-smoothness
// (Definition 2), policy composition and the guided candidate lookup.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "core/migration.h"
#include "core/policy.h"
#include "core/sampling.h"
#include "net/generators.h"
#include "util/rng.h"

namespace staleflow {
namespace {

Instance three_links() {
  return uniform_parallel_links(3, 0.0, 1.0);
}

std::vector<double> get_distribution(const SamplingRule& rule,
                                     const Instance& inst,
                                     std::span<const double> flow,
                                     std::span<const double> latency) {
  const Commodity& commodity = inst.commodity(CommodityId{0});
  std::vector<double> out(commodity.paths.size());
  rule.distribution(inst, commodity, flow, latency, out);
  return out;
}

TEST(UniformSampling, EqualProbabilities) {
  const Instance inst = three_links();
  const std::vector<double> flow{0.7, 0.2, 0.1};
  const std::vector<double> latency{0.7, 0.2, 0.1};
  const UniformSampling rule;
  const auto sigma = get_distribution(rule, inst, flow, latency);
  for (const double s : sigma) EXPECT_DOUBLE_EQ(s, 1.0 / 3.0);
  EXPECT_EQ(rule.name(), "uniform");
}

TEST(ProportionalSampling, MatchesFlowShares) {
  const Instance inst = three_links();
  const std::vector<double> flow{0.7, 0.2, 0.1};
  const std::vector<double> latency{0.0, 0.0, 0.0};
  const ProportionalSampling rule;
  const auto sigma = get_distribution(rule, inst, flow, latency);
  EXPECT_DOUBLE_EQ(sigma[0], 0.7);
  EXPECT_DOUBLE_EQ(sigma[1], 0.2);
  EXPECT_DOUBLE_EQ(sigma[2], 0.1);
}

TEST(ProportionalSampling, UniformFloorMixesIn) {
  const Instance inst = three_links();
  const std::vector<double> flow{1.0, 0.0, 0.0};
  const std::vector<double> latency{0.0, 0.0, 0.0};
  const ProportionalSampling rule(0.3);
  const auto sigma = get_distribution(rule, inst, flow, latency);
  EXPECT_DOUBLE_EQ(sigma[0], 0.7 + 0.1);
  EXPECT_DOUBLE_EQ(sigma[1], 0.1);
  EXPECT_DOUBLE_EQ(sigma[2], 0.1);
  EXPECT_THROW(ProportionalSampling(-0.1), std::invalid_argument);
  EXPECT_THROW(ProportionalSampling(1.1), std::invalid_argument);
}

TEST(ProportionalSampling, NormalisesByCommodityDemand) {
  const Instance inst = shared_bottleneck(0.5);
  const Commodity& c0 = inst.commodity(CommodityId{0});
  std::vector<double> flow(inst.path_count(), 0.0);
  // Put all of commodity 0's demand (0.5) on its first path.
  flow[c0.paths.front().index()] = 0.5;
  std::vector<double> latency(inst.path_count(), 0.0);
  const ProportionalSampling rule;
  std::vector<double> sigma(c0.paths.size());
  rule.distribution(inst, c0, flow, latency, sigma);
  EXPECT_DOUBLE_EQ(sigma[0], 1.0);  // 0.5 / 0.5
  EXPECT_DOUBLE_EQ(std::accumulate(sigma.begin(), sigma.end(), 0.0), 1.0);
}

TEST(LogitSampling, PrefersLowLatency) {
  const Instance inst = three_links();
  const std::vector<double> flow{1.0 / 3, 1.0 / 3, 1.0 / 3};
  const std::vector<double> latency{0.1, 0.5, 0.9};
  const LogitSampling rule(5.0);
  const auto sigma = get_distribution(rule, inst, flow, latency);
  EXPECT_GT(sigma[0], sigma[1]);
  EXPECT_GT(sigma[1], sigma[2]);
  EXPECT_NEAR(std::accumulate(sigma.begin(), sigma.end(), 0.0), 1.0, 1e-12);
  // Ratios follow exp(-c * delta_l).
  EXPECT_NEAR(sigma[0] / sigma[1], std::exp(5.0 * 0.4), 1e-9);
}

TEST(LogitSampling, LargeCApproachesBestResponse) {
  const Instance inst = three_links();
  const std::vector<double> flow{1.0 / 3, 1.0 / 3, 1.0 / 3};
  const std::vector<double> latency{0.1, 0.5, 0.9};
  const LogitSampling rule(200.0);
  const auto sigma = get_distribution(rule, inst, flow, latency);
  EXPECT_GT(sigma[0], 0.999);
  EXPECT_THROW(LogitSampling(0.0), std::invalid_argument);
}

TEST(LogitSampling, StableUnderLargeLatencies) {
  // The softmax must not overflow for big c * l values.
  const Instance inst = three_links();
  const std::vector<double> flow{1.0 / 3, 1.0 / 3, 1.0 / 3};
  const std::vector<double> latency{1000.0, 2000.0, 3000.0};
  const LogitSampling rule(10.0);
  const auto sigma = get_distribution(rule, inst, flow, latency);
  EXPECT_NEAR(sigma[0], 1.0, 1e-9);
  EXPECT_FALSE(std::isnan(sigma[2]));
}

TEST(SamplingRules, RejectWrongOutputSize) {
  const Instance inst = three_links();
  const Commodity& commodity = inst.commodity(CommodityId{0});
  const std::vector<double> flow{1.0 / 3, 1.0 / 3, 1.0 / 3};
  std::vector<double> wrong(2);
  EXPECT_THROW(
      UniformSampling{}.distribution(inst, commodity, flow, flow, wrong),
      std::invalid_argument);
}

// --------------------------------------------------------------- migration

TEST(BetterResponseMigration, StepFunction) {
  const BetterResponseMigration rule;
  EXPECT_DOUBLE_EQ(rule.probability(1.0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(rule.probability(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(rule.probability(1.0, 1.0), 0.0);
  EXPECT_FALSE(rule.smoothness().has_value());
}

TEST(LinearMigration, ProportionalToGain) {
  const LinearMigration rule(2.0);  // l_max = 2
  EXPECT_DOUBLE_EQ(rule.probability(1.0, 0.5), 0.25);
  EXPECT_DOUBLE_EQ(rule.probability(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(rule.probability(5.0, 0.0), 1.0);  // clamped
  ASSERT_TRUE(rule.smoothness().has_value());
  EXPECT_DOUBLE_EQ(*rule.smoothness(), 0.5);
  EXPECT_THROW(LinearMigration(0.0), std::invalid_argument);
}

TEST(AlphaCappedMigration, RespectsAlpha) {
  const AlphaCappedMigration rule(0.1);
  EXPECT_DOUBLE_EQ(rule.probability(2.0, 1.0), 0.1);
  EXPECT_DOUBLE_EQ(rule.probability(20.0, 0.0), 1.0);
  ASSERT_TRUE(rule.smoothness().has_value());
  EXPECT_DOUBLE_EQ(*rule.smoothness(), 0.1);
  EXPECT_THROW(AlphaCappedMigration(-1.0), std::invalid_argument);
}

TEST(RelativeSlackMigration, RelativeGain) {
  const RelativeSlackMigration rule(0.0);
  EXPECT_DOUBLE_EQ(rule.probability(2.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(rule.probability(2.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(rule.probability(1.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(rule.probability(0.0, 0.0), 0.0);
  EXPECT_FALSE(rule.smoothness().has_value());
  EXPECT_THROW(RelativeSlackMigration(-1.0), std::invalid_argument);
}

TEST(RelativeSlackMigration, ShiftMakesItSmooth) {
  const RelativeSlackMigration rule(0.5);
  ASSERT_TRUE(rule.smoothness().has_value());
  EXPECT_DOUBLE_EQ(*rule.smoothness(), 2.0);
  EXPECT_TRUE(satisfies_alpha_smoothness(rule, 2.0, 10.0));
  // mu = (lP - lQ)/(lP + 0.5) <= 2 (lP - lQ); the bound is tight at lP->0.
  EXPECT_DOUBLE_EQ(rule.probability(1.5, 0.5), 0.5);
}

TEST(RelativeSlackMigration, DoesNotScaleWithLatencyMagnitude) {
  // The relative rule is invariant under scaling all latencies.
  const RelativeSlackMigration relative(0.0);
  EXPECT_DOUBLE_EQ(relative.probability(2.0, 1.0),
                   relative.probability(200.0, 100.0));
  // And it stays aggressive in the regime that cripples the linear rule:
  // typical latencies far below the worst case l_max. With l_max = 1000
  // and latencies around 1, linear migrates with ~1e-3 probability where
  // the relative rule migrates with ~1/2.
  const LinearMigration linear_rule(1000.0);
  EXPECT_DOUBLE_EQ(linear_rule.probability(1.0, 0.5), 0.0005);
  EXPECT_DOUBLE_EQ(relative.probability(1.0, 0.5), 0.5);
}

TEST(ConstantMigration, FixedProbability) {
  const ConstantMigration rule(0.4);
  EXPECT_DOUBLE_EQ(rule.probability(1.0, 0.99), 0.4);
  EXPECT_DOUBLE_EQ(rule.probability(0.99, 1.0), 0.0);
  EXPECT_FALSE(rule.smoothness().has_value());
  EXPECT_THROW(ConstantMigration(0.0), std::invalid_argument);
  EXPECT_THROW(ConstantMigration(1.5), std::invalid_argument);
}

TEST(AlphaSmoothness, NumericCheckAgreesWithTheory) {
  // Linear rule with scale L is (1/L)-smooth but not (1/(2L))-smooth.
  const LinearMigration linear(2.0);
  EXPECT_TRUE(satisfies_alpha_smoothness(linear, 0.5, 4.0));
  EXPECT_TRUE(satisfies_alpha_smoothness(linear, 0.6, 4.0));
  EXPECT_FALSE(satisfies_alpha_smoothness(linear, 0.25, 4.0));

  const BetterResponseMigration better;
  EXPECT_FALSE(satisfies_alpha_smoothness(better, 1.0, 4.0));
  EXPECT_FALSE(satisfies_alpha_smoothness(better, 1000.0, 4.0));

  const ConstantMigration constant_rule(0.5);
  EXPECT_FALSE(satisfies_alpha_smoothness(constant_rule, 100.0, 4.0));

  const AlphaCappedMigration capped(0.3);
  EXPECT_TRUE(satisfies_alpha_smoothness(capped, 0.3, 10.0));
  EXPECT_FALSE(satisfies_alpha_smoothness(capped, 0.2, 10.0));
}

TEST(MigrationRules, SelfishContract) {
  // Every rule class returns exactly 0.0 -- not merely a tiny value --
  // whenever the sampled path does not look strictly better: the serve
  // loops skip the call on that condition and must match a call's draw.
  std::vector<MigrationPtr> rules;
  rules.push_back(better_response_migration());
  rules.push_back(linear_migration(1.0));
  rules.push_back(alpha_capped_migration(2.0));
  rules.push_back(relative_slack_migration(0.0));
  rules.push_back(relative_slack_migration(0.5));
  rules.push_back(constant_migration(0.5));
  const double currents[] = {0.0, 1e-12, 0.25, 1.0, 2.0, 1e6};
  for (const auto& rule : rules) {
    for (const double l : currents) {
      // Equal latencies (both zero when l == 0), then l_Q > l_P with gaps
      // from 1 down to 1e-12.
      EXPECT_EQ(rule->probability(l, l), 0.0) << rule->name() << " l=" << l;
      for (int k = 0; k <= 12; ++k) {
        const double gap = std::pow(10.0, -k);
        EXPECT_EQ(rule->probability(l, l + gap), 0.0)
            << rule->name() << " l=" << l << " gap=" << gap;
      }
      const double mu = rule->probability(l + 0.5, l);
      EXPECT_GT(mu, 0.0) << rule->name();
      EXPECT_LE(mu, 1.0) << rule->name();
    }
  }
}

TEST(MigrationRules, MonotoneInGain) {
  std::vector<MigrationPtr> rules;
  rules.push_back(linear_migration(2.0));
  rules.push_back(alpha_capped_migration(0.7));
  for (const auto& rule : rules) {
    double prev = 0.0;
    for (double gain = 0.0; gain <= 3.0; gain += 0.1) {
      const double mu = rule->probability(1.0 + gain, 1.0);
      EXPECT_GE(mu, prev - 1e-15) << rule->name();
      prev = mu;
    }
  }
}

// ------------------------------------------------------------------ policy

TEST(Policy, ComposesNames) {
  const Instance inst = three_links();
  const Policy policy = make_replicator_policy(inst);
  EXPECT_NE(policy.name().find("proportional"), std::string::npos);
  EXPECT_NE(policy.name().find("linear"), std::string::npos);
}

TEST(Policy, ReplicatorSmoothnessIsInverseLmax) {
  const Instance inst = three_links();  // l_max = 1 (a=0, b=1, x<=1)
  const Policy policy = make_replicator_policy(inst);
  ASSERT_TRUE(policy.smoothness().has_value());
  EXPECT_DOUBLE_EQ(*policy.smoothness(), 1.0 / inst.max_latency());
}

TEST(Policy, FactoriesProduceExpectedRules) {
  const Instance inst = three_links();
  EXPECT_FALSE(make_naive_better_response_policy().smoothness().has_value());
  EXPECT_TRUE(make_uniform_linear_policy(inst).smoothness().has_value());
  const Policy alpha_policy = make_alpha_policy(0.25);
  ASSERT_TRUE(alpha_policy.smoothness().has_value());
  EXPECT_DOUBLE_EQ(*alpha_policy.smoothness(), 0.25);
  EXPECT_NE(make_logit_policy(inst, 3.0).name().find("logit"),
            std::string::npos);
}

TEST(Policy, RejectsNullRules) {
  EXPECT_THROW(Policy(nullptr, linear_migration(1.0)),
               std::invalid_argument);
  EXPECT_THROW(Policy(uniform_sampling(), nullptr), std::invalid_argument);
}

class SamplingPositivity
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SamplingPositivity, DistributionsSumToOneAndStayPositive) {
  // Section 2.2 requires sigma_Q > 0 for convergence; with a floor the
  // proportional rule keeps that property even on concentrated flows.
  const auto [links, floor_value] = GetParam();
  const Instance inst =
      uniform_parallel_links(static_cast<std::size_t>(links), 0.0, 1.0);
  std::vector<double> flow(inst.path_count(), 0.0);
  flow[0] = 1.0;  // fully concentrated
  const std::vector<double> latency(inst.path_count(), 0.5);

  std::vector<std::unique_ptr<const SamplingRule>> rules;
  rules.push_back(uniform_sampling());
  rules.push_back(proportional_sampling(floor_value));
  rules.push_back(logit_sampling(2.0));
  for (const auto& rule : rules) {
    const auto sigma = get_distribution(*rule, inst, flow, latency);
    const double total = std::accumulate(sigma.begin(), sigma.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12) << rule->name();
    if (rule->name() != "proportional" || floor_value > 0.0) {
      for (const double s : sigma) EXPECT_GT(s, 0.0) << rule->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SamplingPositivity,
    ::testing::Combine(::testing::Values(2, 3, 8),
                       ::testing::Values(0.01, 0.1, 0.5)));

// ------------------------------------------------------------- guided cdf

/// A GuidedCdf over parallel links whose sampling weights are exactly
/// `weights`: proportional sampling with no floor on a demand-1 commodity
/// samples path j with probability flow[j].
struct WeightedCdf {
  Instance instance;
  GuidedCdf cdf;

  explicit WeightedCdf(const std::vector<double>& weights)
      : instance(uniform_parallel_links(weights.size(), 0.0, 1.0)) {
    const std::vector<double> latency(weights.size(), 0.5);
    sampling_cdf(make_replicator_policy(instance), instance,
                 instance.commodity(CommodityId{0}), weights, latency, cdf);
  }
};

/// What sample_from_cdf() returns for the variate u.
std::size_t lower_bound_index(std::span<const double> cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf.begin()),
                  cdf.size() - 1);
}

std::vector<double> random_weights(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  double total = 0.0;
  for (double& w : weights) total += (w = rng.uniform());
  for (double& w : weights) w /= total;
  return weights;
}

/// Degenerate and ordinary distributions, by name.
std::vector<std::pair<std::string, std::vector<double>>> cdf_cases() {
  return {
      {"one path", {1.0}},
      {"zero mass at the start", {0.0, 0.0, 0.5, 0.5}},
      {"zero mass in the middle", {0.25, 0.0, 0.0, 0.75}},
      {"zero mass at the end", {0.5, 0.5, 0.0, 0.0}},
      {"all mass on one path", {0.0, 0.0, 1.0, 0.0, 0.0}},
      {"steps on bucket edges", {0.25, 0.25, 0.25, 0.25}},
      {"final bucket below 1, clamped", std::vector<double>(10, 0.1)},
      {"32 random paths", random_weights(32, 7)},
      {"1000 random paths", random_weights(1000, 8)},
  };
}

TEST(GuidedCdf, GuideIsTheSmallestPowerOfTwoAtLeastTwicePaths) {
  for (const auto& [name, weights] : cdf_cases()) {
    const WeightedCdf built(weights);
    const std::size_t paths = built.cdf.values().size();
    const std::size_t buckets = built.cdf.guide().size();
    ASSERT_EQ(paths, weights.size()) << name;
    EXPECT_TRUE(std::has_single_bit(buckets)) << name;
    EXPECT_GE(buckets, 2 * paths) << name;
    EXPECT_LT(buckets / 2, 2 * paths) << name;
    // guide[k] is lower_bound's index for the bucket's left edge k / G.
    for (std::size_t k = 0; k < buckets; ++k) {
      const double edge =
          static_cast<double>(k) / static_cast<double>(buckets);
      EXPECT_EQ(built.cdf.guide()[k],
                lower_bound_index(built.cdf.values(), edge))
          << name << ", k=" << k;
    }
  }
}

TEST(GuidedCdf, FinalBucketIsClampedToOne) {
  const std::vector<double> tenths(10, 0.1);
  ASSERT_LT(std::accumulate(tenths.begin(), tenths.end(), 0.0), 1.0);
  const WeightedCdf built(tenths);
  EXPECT_EQ(built.cdf.values().back(), 1.0);
  EXPECT_EQ(built.cdf.index_of(std::nextafter(1.0, 0.0)), 9u);
}

TEST(GuidedCdf, EqualsLowerBoundAtEveryBucketEdgeAndStep) {
  for (const auto& [name, weights] : cdf_cases()) {
    const WeightedCdf built(weights);
    const std::span<const double> cdf = built.cdf.values();
    const double buckets = static_cast<double>(built.cdf.guide().size());
    // Every bucket edge k / G and every CDF step, with the neighbouring
    // doubles on each side, kept inside [0, 1).
    std::vector<double> points;
    for (double k = 0.0; k < buckets; k += 1.0) points.push_back(k / buckets);
    points.insert(points.end(), cdf.begin(), cdf.end());
    for (const double point : points) {
      for (const double u : {std::nextafter(point, 0.0), point,
                             std::nextafter(point, 1.0)}) {
        if (!(u >= 0.0 && u < 1.0)) continue;
        ASSERT_EQ(built.cdf.index_of(u), lower_bound_index(cdf, u))
            << name << ", u=" << u;
      }
    }
  }
}

TEST(GuidedCdf, DrawsEqualTheReferenceOnRandomVariates) {
  constexpr std::size_t kDraws = std::size_t{1} << 20;
  for (const auto& [name, weights] : cdf_cases()) {
    const WeightedCdf built(weights);
    Rng guided(42);
    Rng reference(42);
    for (std::size_t i = 0; i < kDraws; ++i) {
      ASSERT_EQ(built.cdf.sample(guided),
                sample_from_cdf(built.cdf.values(), reference))
          << name << ", draw " << i;
    }
  }
}

}  // namespace
}  // namespace staleflow
