#include "core/dynamics.h"

#include <stdexcept>
#include <vector>

#include "ode/expm.h"

namespace staleflow {
namespace {

/// Fills `generator` and `pair_rates` (both pre-sized |P| x |P|) from
/// per-commodity sampling distributions and migration probabilities
/// evaluated on the given flow/latency vectors.
void build_generator(const Instance& instance, const Policy& policy,
                     std::span<const double> path_flow,
                     std::span<const double> path_latency,
                     Matrix& generator, Matrix& pair_rates) {
  std::vector<double> sigma;
  for (std::size_t c = 0; c < instance.commodity_count(); ++c) {
    const Commodity& commodity = instance.commodity(CommodityId{c});
    const std::size_t m = commodity.paths.size();
    sigma.resize(m);
    policy.sampling().distribution(instance, commodity, path_flow,
                                   path_latency, sigma);
    for (std::size_t jp = 0; jp < m; ++jp) {
      const std::size_t p = commodity.paths[jp].index();
      double outflow = 0.0;
      for (std::size_t jq = 0; jq < m; ++jq) {
        const std::size_t q = commodity.paths[jq].index();
        // Selfish rules give mu == 0 unless q looks strictly better (never
        // for q == p): no rate, no call.
        if (!(path_latency[q] < path_latency[p])) continue;
        const double rate =
            sigma[jq] *
            policy.migration().probability(path_latency[p], path_latency[q]);
        if (rate == 0.0) continue;
        pair_rates(p, q) = rate;
        generator(q, p) += rate;  // inflow into q from p
        outflow += rate;
      }
      generator(p, p) -= outflow;
    }
  }
}

}  // namespace

PhaseRates::PhaseRates(const Instance& instance, const Policy& policy,
                       const BulletinBoard& board)
    : generator_(instance.path_count(), instance.path_count()),
      pair_rates_(instance.path_count(), instance.path_count()) {
  if (!board.has_data()) {
    throw std::logic_error("PhaseRates: bulletin board has no data");
  }
  build_generator(instance, policy, board.path_flow(), board.path_latency(),
                  generator_, pair_rates_);
}

void PhaseRates::rhs(std::span<const double> path_flow,
                     std::span<double> dfdt) const {
  if (path_flow.size() != generator_.rows() ||
      dfdt.size() != generator_.rows()) {
    throw std::invalid_argument("PhaseRates::rhs: size mismatch");
  }
  const std::vector<double> out = generator_.apply(path_flow);
  std::copy(out.begin(), out.end(), dfdt.begin());
}

Matrix PhaseRates::transition(double tau) const {
  if (!(tau >= 0.0)) {
    throw std::invalid_argument("PhaseRates::transition: tau must be >= 0");
  }
  Matrix scaled = generator_;
  scaled *= tau;
  return expm(scaled);
}

Matrix PhaseRates::migrated_volumes(std::span<const double> start_flow,
                                    double tau) const {
  const std::size_t n = generator_.rows();
  if (start_flow.size() != n) {
    throw std::invalid_argument(
        "PhaseRates::migrated_volumes: size mismatch");
  }
  if (!(tau >= 0.0)) {
    throw std::invalid_argument(
        "PhaseRates::migrated_volumes: tau must be >= 0");
  }
  // Augmented linear system over [f; F] with F' = f: the block matrix
  //   [G 0; I 0] exponentiated gives both f(tau) and F(tau) = INT f dt.
  Matrix augmented(2 * n, 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      augmented(i, j) = generator_(i, j);
    }
    augmented(n + i, i) = 1.0;
  }
  augmented *= tau;
  const Matrix phase = expm(augmented);
  std::vector<double> state(2 * n, 0.0);
  std::copy(start_flow.begin(), start_flow.end(), state.begin());
  const std::vector<double> end = phase.apply(state);

  Matrix volumes(n, n);
  for (std::size_t p = 0; p < n; ++p) {
    const double time_integral = end[n + p];  // INT_0^tau f_p(t) dt
    for (std::size_t q = 0; q < n; ++q) {
      if (pair_rates_(p, q) == 0.0) continue;
      volumes(p, q) = pair_rates_(p, q) * time_integral;
    }
  }
  return volumes;
}

FreshDynamics::FreshDynamics(const Instance& instance, const Policy& policy)
    : instance_(&instance), policy_(&policy) {}

void FreshDynamics::rhs(std::span<const double> path_flow,
                        std::span<double> dfdt) const {
  if (path_flow.size() != instance_->path_count() ||
      dfdt.size() != instance_->path_count()) {
    throw std::invalid_argument("FreshDynamics::rhs: size mismatch");
  }
  const std::vector<double> latency = path_latencies(*instance_, path_flow);
  std::fill(dfdt.begin(), dfdt.end(), 0.0);
  std::vector<double> sigma;
  for (std::size_t c = 0; c < instance_->commodity_count(); ++c) {
    const Commodity& commodity = instance_->commodity(CommodityId{c});
    const std::size_t m = commodity.paths.size();
    sigma.resize(m);
    policy_->sampling().distribution(*instance_, commodity, path_flow,
                                     latency, sigma);
    for (std::size_t jp = 0; jp < m; ++jp) {
      const std::size_t p = commodity.paths[jp].index();
      for (std::size_t jq = 0; jq < m; ++jq) {
        const std::size_t q = commodity.paths[jq].index();
        // Selfish rules give mu == 0 unless q looks strictly better (never
        // for q == p): no rate, no call.
        if (!(latency[q] < latency[p])) continue;
        const double rate =
            path_flow[p] * sigma[jq] *
            policy_->migration().probability(latency[p], latency[q]);
        if (rate == 0.0) continue;
        dfdt[p] -= rate;
        dfdt[q] += rate;
      }
    }
  }
}

}  // namespace staleflow
