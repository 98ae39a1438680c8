#include "agents/agent_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "agents/population.h"
#include "core/bulletin_board.h"

namespace staleflow {

AgentSimulator::AgentSimulator(const Instance& instance, const Policy& policy)
    : instance_(&instance), policy_(&policy) {}

AgentSimResult AgentSimulator::run(const FlowVector& initial,
                                   const AgentSimOptions& options,
                                   const PhaseObserver& observer) const {
  if (!is_feasible(*instance_, initial.values(), 1e-7)) {
    throw std::invalid_argument("AgentSimulator::run: infeasible start");
  }
  if (!(options.update_period > 0.0) || !(options.horizon > 0.0)) {
    throw std::invalid_argument("AgentSimulator::run: bad options");
  }

  Rng rng(options.seed);
  const std::size_t k = instance_->commodity_count();
  Population population(*instance_, options.num_agents, initial.values());

  BulletinBoard board(*instance_);
  // Per-commodity sampling distribution, fixed within a phase.
  std::vector<GuidedCdf> cdfs(k);
  auto refresh_board = [&](double now) {
    board.post(now, population.empirical_flow());
    for (std::size_t c = 0; c < k; ++c) {
      sampling_cdf(*policy_, *instance_,
                   instance_->commodity(CommodityId{c}), board.path_flow(),
                   board.path_latency(), cdfs[c]);
    }
  };

  AgentSimResult result{FlowVector(*instance_, population.empirical_flow())};
  const double total_rate = static_cast<double>(options.num_agents);
  std::vector<double> flow_before(population.empirical_flow().begin(),
                                  population.empirical_flow().end());

  // Regret accounting: per-path latency integrals and the flow-weighted
  // experienced latency, accumulated per completed phase at its left
  // endpoint (the board's own snapshot).
  std::vector<double> cumulative_latency(instance_->path_count(), 0.0);
  double experienced_integral = 0.0;
  double accounted_time = 0.0;
  auto account_phase_latency = [&]() {
    const double T = options.update_period;
    for (std::size_t p = 0; p < instance_->path_count(); ++p) {
      const double l_hat = board.path_latency()[p];
      cumulative_latency[p] += l_hat * T;
      experienced_integral += board.path_flow()[p] * l_hat * T;
    }
    accounted_time += T;
  };

  // Rng::below(num_agents) with the divisor's work done once per run.
  const BoundedDraw draw_agent(options.num_agents);
  double t = 0.0;
  std::size_t phase = 0;
  refresh_board(0.0);
  double next_update = options.update_period;

  while (t < options.horizon) {
    const double wait = rng.exponential(total_rate);
    double next_t = t + wait;

    // Process any board updates that occur before the next activation.
    while (next_update <= std::min(next_t, options.horizon)) {
      account_phase_latency();
      ++phase;
      if (observer) {
        PhaseInfo info;
        info.index = phase - 1;
        info.start_time = next_update - options.update_period;
        info.end_time = next_update;
        info.flow_before = flow_before;
        info.flow_after = population.empirical_flow();
        observer(info);
      }
      refresh_board(next_update);
      flow_before.assign(population.empirical_flow().begin(),
                         population.empirical_flow().end());
      next_update += options.update_period;
    }
    if (next_t >= options.horizon) {
      t = options.horizon;
      break;
    }
    t = next_t;

    // Activate one uniformly random agent.
    const auto agent = static_cast<std::size_t>(draw_agent(rng));
    ++result.activations;
    const CommodityId c = population.commodity_of(agent);
    const Commodity& commodity = instance_->commodity(c);
    const std::size_t current_local = population.local_path(agent);

    // Sample a candidate path from the phase-constant distribution.
    const std::size_t sampled_local = cdfs[c.index()].sample(rng);
    const double l_current =
        board.path_latency()[commodity.paths[current_local].index()];
    const double l_sampled =
        board.path_latency()[commodity.paths[sampled_local].index()];
    // Selfish rules give mu == 0 unless the candidate looks strictly
    // better, and bernoulli(0) draws nothing: skip the rule outright.
    if (!(l_sampled < l_current)) continue;
    const double mu = policy_->migration().probability(l_current, l_sampled);
    if (!rng.bernoulli(mu)) continue;

    population.migrate(agent, sampled_local);
    ++result.migrations;
  }

  result.final_flow = FlowVector(*instance_, population.empirical_flow());
  result.final_time = t;
  result.phases = phase;

  if (accounted_time > 0.0) {
    // Total demand is normalised to 1, so the population average is the
    // raw integral divided by time.
    result.average_experienced_latency =
        experienced_integral / accounted_time;
    for (std::size_t c = 0; c < k; ++c) {
      const Commodity& commodity = instance_->commodity(CommodityId{c});
      double best = std::numeric_limits<double>::infinity();
      for (const PathId p : commodity.paths) {
        best = std::min(best, cumulative_latency[p.index()]);
      }
      result.hindsight_best_latency +=
          commodity.demand * best / accounted_time;
    }
    result.average_regret = result.average_experienced_latency -
                            result.hindsight_best_latency;
  }
  return result;
}

}  // namespace staleflow
