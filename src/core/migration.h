// Migration rules: step (2) of the rerouting policies, and the paper's
// alpha-smoothness condition (Definition 2).
//
// mu(l_P, l_Q) is the probability of actually switching from the current
// path P to the sampled path Q. A rule is alpha-smooth if
// mu(l_P, l_Q) <= alpha * (l_P - l_Q) for all l_P >= l_Q; smooth rules
// combined with a board period T <= 1/(4*D*alpha*beta) are guaranteed to
// converge (Corollary 5).
#pragma once

#include <memory>
#include <optional>
#include <string>

namespace staleflow {

/// Probability of migrating given the (stale) latencies of the current and
/// the sampled path.
///
/// Contract: selfish — mu(lP, lQ) == 0 whenever lQ >= lP — and
/// non-decreasing in the gain lP - lQ, with values in [0, 1]. The serve
/// loops (EpochEngine, AgentSimulator) and the fluid generators rely on
/// the selfish part: they call probability() only when lQ < lP.
class MigrationRule {
 public:
  virtual ~MigrationRule() = default;

  /// Migration probability; `current` and `sampled` are path latencies.
  virtual double probability(double current, double sampled) const = 0;

  /// The smallest alpha for which the rule is alpha-smooth, or nullopt if
  /// it is not alpha-smooth for any alpha (e.g. better response).
  virtual std::optional<double> smoothness() const = 0;

  virtual std::string name() const = 0;
};

/// Better response: switch whenever the sampled path is strictly better.
/// Not alpha-smooth; oscillates under stale information.
class BetterResponseMigration final : public MigrationRule {
 public:
  double probability(double current, double sampled) const override;
  std::optional<double> smoothness() const override { return std::nullopt; }
  std::string name() const override { return "better-response"; }
};

/// Linear migration policy (Section 2.2): mu = (l_P - l_Q) / l_max for
/// l_P > l_Q, which is (1/l_max)-smooth. `scale` is l_max; gains are
/// clamped so the result stays in [0, 1] even if latencies exceed l_max.
class LinearMigration final : public MigrationRule {
 public:
  explicit LinearMigration(double scale);
  double probability(double current, double sampled) const override;
  std::optional<double> smoothness() const override { return 1.0 / scale_; }
  std::string name() const override;

 private:
  double scale_;
};

/// mu = min(1, alpha * (l_P - l_Q)): the generic alpha-smooth rule used to
/// explore the Corollary 5 threshold directly.
class AlphaCappedMigration final : public MigrationRule {
 public:
  explicit AlphaCappedMigration(double alpha);
  double probability(double current, double sampled) const override;
  std::optional<double> smoothness() const override { return alpha_; }
  std::string name() const override;

 private:
  double alpha_;
};

/// Extension (paper conclusion / Fischer-Raecke-Voecking [10]): migrate
/// with a probability proportional to the *relative* latency gain,
///   mu = (l_P - l_Q) / (l_P + shift).
/// Unlike the linear rule this does not scale with l_max, so on steep
/// latency classes (high-degree polynomials) it stays aggressive where
/// the slope-bound-driven rules must crawl. With shift > 0 it is
/// (1/shift)-smooth; with shift = 0 it satisfies no global alpha bound
/// (smoothness() returns nullopt) and convergence follows from the
/// elasticity-based analysis of [10] rather than Corollary 5.
class RelativeSlackMigration final : public MigrationRule {
 public:
  explicit RelativeSlackMigration(double shift);
  double probability(double current, double sampled) const override;
  std::optional<double> smoothness() const override;
  std::string name() const override;

 private:
  double shift_;
};

/// mu = p whenever the sampled path is strictly better (any fixed p > 0).
/// Like better response this is not alpha-smooth — the jump at gain 0+
/// violates Definition 2 — and it serves as a second naive baseline.
class ConstantMigration final : public MigrationRule {
 public:
  explicit ConstantMigration(double p);
  double probability(double current, double sampled) const override;
  std::optional<double> smoothness() const override { return std::nullopt; }
  std::string name() const override;

 private:
  double p_;
};

using MigrationPtr = std::unique_ptr<const MigrationRule>;

MigrationPtr better_response_migration();
MigrationPtr linear_migration(double scale);
MigrationPtr alpha_capped_migration(double alpha);
MigrationPtr constant_migration(double p);
MigrationPtr relative_slack_migration(double shift = 0.0);

/// Numerically checks Definition 2 on a latency grid: returns true iff
/// mu(lP, lQ) <= alpha * (lP - lQ) for all grid pairs lP >= lQ in
/// [0, latency_range], and mu is 0 for lQ >= lP.
bool satisfies_alpha_smoothness(const MigrationRule& rule, double alpha,
                                double latency_range, int grid = 129);

}  // namespace staleflow
