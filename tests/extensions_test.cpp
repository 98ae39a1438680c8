// Tests for the extension modules: synchronous-rounds dynamics, latency
// combinators, convergence estimation, and the new generator families.
#include <gtest/gtest.h>

#include <cmath>

#include "staleflow/staleflow.h"

namespace staleflow {
namespace {

Instance pigou() {
  Graph g(2);
  const EdgeId e1 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e1, linear(1.0));
  b.set_latency(e2, constant(1.0));
  b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
  return std::move(b).build();
}

// --------------------------------------------------------- RoundSimulator

TEST(RoundSimulator, ConvergesWithGentleActivation) {
  const Instance inst = pigou();
  const Policy policy = make_uniform_linear_policy(inst);
  const RoundSimulator sim(inst, policy);
  RoundSimOptions options;
  options.activation_probability = 0.1;
  options.rounds_per_update = 4;
  options.total_rounds = 30'000;
  options.stop_gap = 1e-6;
  const RoundSimResult result = sim.run(FlowVector::uniform(inst), options);
  EXPECT_LT(result.final_gap, 1e-4);
  EXPECT_TRUE(is_feasible(inst, result.final_flow.values(), 1e-9));
}

TEST(RoundSimulator, MatchesFluidForSmallLambda) {
  // With lambda -> 0 the synchronous map is the Euler discretisation of
  // the fluid ODE: after k rounds it should sit near f(lambda * k).
  const Instance inst = pigou();
  const Policy policy = make_uniform_linear_policy(inst);
  const double lambda = 0.01;
  const std::size_t rounds = 400;  // simulated time 4.0

  const RoundSimulator rounds_sim(inst, policy);
  RoundSimOptions round_options;
  round_options.activation_probability = lambda;
  round_options.rounds_per_update = 25;  // board period 0.25 in fluid time
  round_options.total_rounds = rounds;
  const RoundSimResult discrete =
      rounds_sim.run(FlowVector::uniform(inst), round_options);

  const FluidSimulator fluid(inst, policy);
  SimulationOptions fluid_options;
  fluid_options.update_period = lambda * 25.0;
  fluid_options.horizon = lambda * static_cast<double>(rounds);
  fluid_options.method = IntegrationMethod::kExact;
  const SimulationResult continuous =
      fluid.run(FlowVector::uniform(inst), fluid_options);

  for (std::size_t p = 0; p < inst.path_count(); ++p) {
    EXPECT_NEAR(discrete.final_flow[PathId{p}],
                continuous.final_flow[PathId{p}], 5e-3);
  }
}

TEST(RoundSimulator, ObserverSeesBoardCadence) {
  const Instance inst = pigou();
  const Policy policy = make_uniform_linear_policy(inst);
  const RoundSimulator sim(inst, policy);
  RoundSimOptions options;
  options.activation_probability = 0.2;
  options.rounds_per_update = 3;
  options.total_rounds = 9;
  std::vector<bool> updates;
  sim.run(FlowVector::uniform(inst), options,
          [&](const RoundInfo& info) {
            updates.push_back(info.board_updated);
          });
  ASSERT_EQ(updates.size(), 9u);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(updates[i], i % 3 == 0);
  }
}

TEST(RoundSimulator, RejectsBadOptions) {
  const Instance inst = pigou();
  const Policy policy = make_uniform_linear_policy(inst);
  const RoundSimulator sim(inst, policy);
  RoundSimOptions options;
  options.activation_probability = 0.0;
  EXPECT_THROW(sim.run(FlowVector::uniform(inst), options),
               std::invalid_argument);
  options.activation_probability = 1.5;
  EXPECT_THROW(sim.run(FlowVector::uniform(inst), options),
               std::invalid_argument);
  options.activation_probability = 0.5;
  options.rounds_per_update = 0;
  EXPECT_THROW(sim.run(FlowVector::uniform(inst), options),
               std::invalid_argument);
  EXPECT_THROW(sim.run(FlowVector(inst, {0.9, 0.9}), RoundSimOptions{}),
               std::invalid_argument);
}

TEST(RoundSimulator, FullActivationWithBetterResponseOscillates) {
  // lambda = 1 + better response + stale board: the discrete analogue of
  // the paper's oscillation, visible as a non-settling gap.
  const Instance inst = two_link_pulse(8.0);
  const Policy policy = make_naive_better_response_policy();
  const RoundSimulator sim(inst, policy);
  RoundSimOptions options;
  options.activation_probability = 1.0;
  options.rounds_per_update = 2;
  options.total_rounds = 200;
  std::vector<double> gaps;
  sim.run(FlowVector(inst, {0.8, 0.2}), options,
          [&](const RoundInfo& info) {
            gaps.push_back(wardrop_gap(inst, info.flow_after));
          });
  // The tail never settles to zero.
  const double tail = tail_amplitude(gaps, 50);
  EXPECT_GT(tail, 0.01);
}

// ----------------------------------------------------------- combinators

TEST(Combinators, ScaleIsExact) {
  const LatencyPtr base = affine(1.0, 2.0);
  const LatencyPtr doubled = scale(2.0, base);
  for (double x : {0.0, 0.3, 1.0}) {
    EXPECT_DOUBLE_EQ(doubled->value(x), 2.0 * base->value(x));
    EXPECT_DOUBLE_EQ(doubled->integral(x), 2.0 * base->integral(x));
    EXPECT_DOUBLE_EQ(doubled->derivative(x), 2.0 * base->derivative(x));
  }
  EXPECT_DOUBLE_EQ(doubled->max_slope(1.0), 4.0);
  EXPECT_EQ(check_latency_contract(*doubled), "");
  EXPECT_THROW(ScaledLatency(-1.0, *base), std::invalid_argument);
}

TEST(Combinators, OffsetAndNesting) {
  const LatencyPtr nested = offset(scale(3.0, linear(1.0)), 2.0);  // 3x + 2
  EXPECT_DOUBLE_EQ(nested->value(1.0), 5.0);
  EXPECT_DOUBLE_EQ(nested->integral(1.0), 1.5 + 2.0);
  EXPECT_EQ(check_latency_contract(*nested), "");
  const LatencyPtr copy = nested->clone();
  EXPECT_DOUBLE_EQ(copy->value(0.5), nested->value(0.5));
}

TEST(Combinators, NullArgumentsThrow) {
  const LatencyPtr null_ptr;
  EXPECT_THROW(scale(1.0, null_ptr), std::invalid_argument);
  EXPECT_THROW(offset(null_ptr, 1.0), std::invalid_argument);
}

TEST(Combinators, UsableInInstances) {
  Graph g(2);
  const EdgeId e1 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e1, scale(0.5, affine(0.0, 2.0)));  // effectively x
  b.set_latency(e2, offset(scale(0.0, linear(1.0)), 1.0));  // effectively 1
  b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
  const Instance inst = std::move(b).build();
  const FrankWolfeResult eq = solve_equilibrium(inst);
  EXPECT_NEAR(eq.flow[PathId{0}], 1.0, 1e-4);  // Pigou in disguise
}

// ----------------------------------------------------------------- jitter

TEST(PeriodJitter, ConvergesWhenWorstPhaseIsSafe) {
  // With T*(1+jitter) <= T_safe every possible phase length satisfies
  // Lemma 4's premise, so convergence is preserved under random updates.
  const Instance inst = two_link_pulse(4.0);
  const Policy policy = make_uniform_linear_policy(inst);
  const double t_safe = inst.safe_update_period(*policy.smoothness());
  const FluidSimulator sim(inst, policy);

  AccountingRecorder recorder(inst);
  SimulationOptions options;
  options.update_period = t_safe / 1.5;
  options.period_jitter = 0.5;  // phase lengths in [T/2, 3T/2] <= T_safe
  options.jitter_seed = 99;
  options.horizon = 300.0;
  options.stop_gap = 1e-8;
  const SimulationResult result =
      sim.run(FlowVector(inst, {0.9, 0.1}), options, recorder.observer());
  EXPECT_LT(result.final_gap, 1e-4);
  EXPECT_EQ(recorder.lemma4_violations(), 0u);
}

TEST(PeriodJitter, PhaseLengthsActuallyVary) {
  const Instance inst = pigou();
  const Policy policy = make_uniform_linear_policy(inst);
  const FluidSimulator sim(inst, policy);
  SimulationOptions options;
  options.update_period = 0.2;
  options.period_jitter = 0.4;
  options.horizon = 10.0;
  RunningStats lengths;
  sim.run(FlowVector::uniform(inst), options, [&](const PhaseInfo& info) {
    // The very last phase may be truncated by the horizon; skip it.
    if (info.end_time < options.horizon) {
      lengths.add(info.end_time - info.start_time);
    }
  });
  ASSERT_GT(lengths.count(), 10u);
  EXPECT_GT(lengths.max() - lengths.min(), 0.01);
  EXPECT_GE(lengths.min(), 0.2 * 0.6 - 1e-12);
  EXPECT_LE(lengths.max(), 0.2 * 1.4 + 1e-12);
}

TEST(PeriodJitter, RejectsBadConfig) {
  const Instance inst = pigou();
  const Policy policy = make_uniform_linear_policy(inst);
  const FluidSimulator sim(inst, policy);
  SimulationOptions options;
  options.period_jitter = 1.0;
  EXPECT_THROW(sim.run(FlowVector::uniform(inst), options),
               std::invalid_argument);
  options.period_jitter = 0.5;
  options.update_period = 0.0;  // fresh mode + jitter is meaningless
  EXPECT_THROW(sim.run(FlowVector::uniform(inst), options),
               std::invalid_argument);
}

// ----------------------------------------------------------------- report

TEST(FlowReport, AggregatesPerCommodity) {
  const Instance inst = shared_bottleneck(0.5);
  const FlowVector f = FlowVector::uniform(inst);
  const FlowReport report = make_report(inst, f.values());
  ASSERT_EQ(report.commodities.size(), 2u);
  double gap_total = 0.0;
  for (const CommodityReport& cr : report.commodities) {
    EXPECT_GT(cr.active_paths, 0u);
    EXPECT_LE(cr.min_latency, cr.avg_latency + 1e-12);
    gap_total += cr.gap_share;
  }
  EXPECT_NEAR(gap_total, report.gap, 1e-12);
  EXPECT_NEAR(report.social_cost, social_cost(inst, f.values()), 1e-12);
}

TEST(FlowReport, FormatsAsTable) {
  const Instance inst = pigou();
  const FlowVector f = FlowVector::uniform(inst);
  const std::string text = describe_flow(inst, f.values());
  EXPECT_NE(text.find("potential"), std::string::npos);
  EXPECT_NE(text.find("c0"), std::string::npos);
  EXPECT_NE(text.find("active paths"), std::string::npos);
}

TEST(FlowReport, ZeroGapAtEquilibrium) {
  const Instance inst = pigou();
  const FrankWolfeResult eq = solve_equilibrium(inst);
  const FlowReport report = make_report(inst, eq.flow.values());
  EXPECT_LT(report.gap, 1e-9);
  EXPECT_NEAR(report.commodities[0].min_latency,
              report.commodities[0].avg_latency, 1e-6);
}

// ------------------------------------------------------------- generators

TEST(SeriesParallel, PathCountGrowsRecursively) {
  Rng rng(3);
  // paths(d) = paths(d-1)^2 + paths(d-1); depth 0 -> 1, 1 -> 2, 2 -> 6.
  EXPECT_EQ(series_parallel(0, rng).path_count(), 1u);
  EXPECT_EQ(series_parallel(1, rng).path_count(), 2u);
  EXPECT_EQ(series_parallel(2, rng).path_count(), 6u);
  EXPECT_THROW(series_parallel(7, rng), std::invalid_argument);
}

TEST(SeriesParallel, IsAcyclicAndSolvable) {
  Rng rng(5);
  const Instance inst = series_parallel(3, rng);
  EXPECT_TRUE(inst.graph().is_acyclic());
  const FrankWolfeResult eq = solve_equilibrium(inst);
  EXPECT_TRUE(eq.converged);
}

TEST(ChainedBraess, EquilibriumCostIsTwoPerGadget) {
  for (const std::size_t k : {1u, 2u, 3u}) {
    const Instance inst = chained_braess(k);
    EXPECT_EQ(inst.path_count(), static_cast<std::size_t>(std::pow(3, k)));
    const FrankWolfeResult eq = solve_equilibrium(inst);
    const FlowEvaluation eval = evaluate(inst, eq.flow.values());
    EXPECT_NEAR(eval.average_latency, 2.0 * static_cast<double>(k), 1e-4)
        << "k=" << k;
  }
  EXPECT_THROW(chained_braess(0), std::invalid_argument);
  EXPECT_THROW(chained_braess(9), std::invalid_argument);
}

TEST(ChainedBraess, PoaApproachesFourThirds) {
  const Instance inst = chained_braess(2);
  const PriceOfAnarchyResult poa = price_of_anarchy(inst);
  EXPECT_NEAR(poa.ratio, 4.0 / 3.0, 1e-3);
}

TEST(ChainedBraess, SmoothPolicyConvergesDespiteStaleness) {
  const Instance inst = chained_braess(2);
  const Policy policy = make_replicator_policy(inst, 0.02);
  const double T = inst.safe_update_period(*policy.smoothness());
  const FluidSimulator sim(inst, policy);
  SimulationOptions options;
  options.update_period = T;
  options.horizon = 3'000.0;
  options.stop_gap = 1e-5;
  const SimulationResult result = sim.run(FlowVector::uniform(inst), options);
  EXPECT_LT(result.final_gap, 1e-3);
}

}  // namespace
}  // namespace staleflow
