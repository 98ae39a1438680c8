// The fluid-limit dynamics (Eqs. (1) and (3)).
//
// Within one bulletin-board phase the per-agent migration rates
//   m_PQ = sigma_Q(f̂) * mu(l̂_P, l̂_Q)
// are constants, so the dynamics is the *linear* ODE f' = G f where G is a
// generator matrix (columns sum to zero):
//   G[q][p] = m_pq for p != q (inflow into q from p),
//   G[p][p] = -sum_{q != p} m_pq.
// PhaseRates builds G once per phase and offers both an RHS for generic
// integrators and the exact solution via expm.
//
// FreshDynamics implements Eq. (1) — information always up to date — where
// the rates are re-evaluated at the live flow, making the ODE nonlinear.
#pragma once

#include <span>

#include "core/bulletin_board.h"
#include "core/policy.h"
#include "net/instance.h"
#include "ode/matrix.h"

namespace staleflow {

/// Per-phase constant migration rate structure under stale information.
class PhaseRates {
 public:
  /// Builds the generator from the board contents (board must have data).
  PhaseRates(const Instance& instance, const Policy& policy,
             const BulletinBoard& board);

  /// The generator matrix G with f' = G f.
  const Matrix& generator() const noexcept { return generator_; }

  /// Evaluates f' = G f into dfdt (both sized |P|).
  void rhs(std::span<const double> path_flow, std::span<double> dfdt) const;

  /// Exact phase transition: returns expm(G * tau) (tau >= 0), which maps
  /// f(t̂) to f(t̂ + tau).
  Matrix transition(double tau) const;

  /// Per-pair migrated volumes Delta f_PQ over a phase of length tau
  /// starting from `start_flow`: Delta f_PQ = m_PQ * INT_0^tau f_P(t) dt,
  /// computed by integrating the flow alongside its time integral.
  Matrix migrated_volumes(std::span<const double> start_flow,
                          double tau) const;

 private:
  Matrix generator_;
  /// Per-agent migration rate m_PQ = sigma_Q(f̂) * mu(l̂_P, l̂_Q) from path
  /// p to path q (zero across commodities and on the diagonal). The flow
  /// migrating P->Q over the phase is m_PQ * INT f_P(t) dt, which the
  /// Lemma 3/4 decomposition (V_PQ terms, Fig. 1) needs.
  Matrix pair_rates_;
};

/// Nonlinear fresh-information dynamics (Eq. (1)); evaluates migration
/// rates at the live flow.
class FreshDynamics {
 public:
  FreshDynamics(const Instance& instance, const Policy& policy);

  /// Evaluates the RHS of Eq. (1) at `path_flow` into `dfdt`.
  void rhs(std::span<const double> path_flow, std::span<double> dfdt) const;

 private:
  const Instance* instance_;
  const Policy* policy_;
};

}  // namespace staleflow
