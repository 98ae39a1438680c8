// Focused coverage tests for paths that the main suites only exercise
// indirectly: per-pair migrated volumes, multi-column linear solves,
// renormalisation across commodities, describe() surfaces, and the less
// common option combinations of the simulators.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "latency/quadrature.h"
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

// ------------------------------------------------------- migrated volumes

TEST(MigratedVolumes, ConsistentWithPhaseTransition) {
  // Flow conservation: f_P(tau) - f_P(0) = sum_Q (Delta f_QP - Delta f_PQ).
  const Instance inst = braess(true);
  const Policy policy = make_uniform_linear_policy(inst);
  BulletinBoard board(inst);
  const FlowVector start =
      FlowVector::concentrated(inst, std::vector<std::size_t>{0});
  board.post(0.0, start.values());
  const PhaseRates rates(inst, policy, board);

  const double tau = 0.2;
  const std::vector<double> end = rates.transition(tau).apply(start.values());
  const Matrix volumes = rates.migrated_volumes(start.values(), tau);

  const std::size_t n = inst.path_count();
  for (std::size_t p = 0; p < n; ++p) {
    double net = 0.0;
    for (std::size_t q = 0; q < n; ++q) {
      net += volumes(q, p) - volumes(p, q);
    }
    EXPECT_NEAR(end[p] - start.values()[p], net, 1e-12) << "path " << p;
  }
}

TEST(MigratedVolumes, PairwiseGainsSumToVirtualGain) {
  // sum_PQ Delta f_PQ * (l̂_Q - l̂_P) must equal Eq. (8)'s V(f̂, f).
  const Instance inst = two_link_pulse(4.0);
  const Policy policy = make_uniform_linear_policy(inst);
  BulletinBoard board(inst);
  const std::vector<double> start{0.85, 0.15};
  board.post(0.0, start);
  const PhaseRates rates(inst, policy, board);

  const double tau = 0.1;
  const std::vector<double> end = rates.transition(tau).apply(start);
  const Matrix volumes = rates.migrated_volumes(start, tau);

  double v_pairwise = 0.0;
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t q = 0; q < 2; ++q) {
      v_pairwise += volumes(p, q) *
                    (board.path_latency()[q] - board.path_latency()[p]);
    }
  }
  EXPECT_NEAR(v_pairwise, virtual_gain(inst, start, end), 1e-13);
}

TEST(MigratedVolumes, NonNegativeAndSelfishOnly) {
  const Instance inst = pigou();
  const Policy policy = make_uniform_linear_policy(inst);
  BulletinBoard board(inst);
  const std::vector<double> start{0.2, 0.8};
  board.post(0.0, start);
  const PhaseRates rates(inst, policy, board);
  const Matrix volumes = rates.migrated_volumes(start, 0.5);
  // Path 1 (constant 1) is worse than path 0 (latency 0.2): only 1 -> 0
  // migration happens.
  EXPECT_GT(volumes(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(volumes(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(volumes(0, 0), 0.0);
  EXPECT_THROW(rates.migrated_volumes(start, -1.0), std::invalid_argument);
  const std::vector<double> wrong{0.5};
  EXPECT_THROW(rates.migrated_volumes(wrong, 0.1), std::invalid_argument);
}

// --------------------------------------------------------------- matrices

TEST(Matrix, MultiColumnSolve) {
  Matrix a(3, 3);
  a(0, 0) = 2.0; a(0, 1) = 1.0; a(0, 2) = 0.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0; a(1, 2) = 1.0;
  a(2, 0) = 0.0; a(2, 1) = 1.0; a(2, 2) = 4.0;
  const Matrix inverse = a.solve(Matrix::identity(3));
  const Matrix product = a.multiply(inverse);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(product(i, j), i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(Expm, EmptyMatrix) {
  const Matrix e = expm(Matrix(0, 0));
  EXPECT_EQ(e.rows(), 0u);
}

TEST(DormandPrince45, RespectsMaxStep) {
  DormandPrince45::Options opts;
  opts.max_step = 0.01;
  std::vector<double> y{1.0};
  const OdeRhs decay = [](double, std::span<const double> y_in,
                          std::span<double> dydt) { dydt[0] = -y_in[0]; };
  const OdeStats stats = DormandPrince45(opts).integrate(decay, 0.0, 1.0, y);
  EXPECT_GE(stats.steps_accepted, 100u);  // forced small steps
  EXPECT_NEAR(y[0], std::exp(-1.0), 1e-9);
}

// ------------------------------------------------------------------ flows

TEST(Renormalise, MultiCommodityBlocksIndependent) {
  const Instance inst = shared_bottleneck(0.25);
  std::vector<double> f(inst.path_count(), 0.0);
  // Perturb each commodity's block differently.
  const Commodity& c0 = inst.commodity(CommodityId{0});
  const Commodity& c1 = inst.commodity(CommodityId{1});
  f[c0.paths[0].index()] = 0.4;   // should scale down to 0.25 total
  f[c1.paths[0].index()] = 0.3;   // should scale up to 0.75 total
  f[c1.paths[1].index()] = 0.1;
  renormalise(inst, f);
  double t0 = 0.0, t1 = 0.0;
  for (const PathId p : c0.paths) t0 += f[p.index()];
  for (const PathId p : c1.paths) t1 += f[p.index()];
  EXPECT_NEAR(t0, 0.25, 1e-12);
  EXPECT_NEAR(t1, 0.75, 1e-12);
  // Within-block ratios preserved.
  EXPECT_NEAR(f[c1.paths[0].index()] / f[c1.paths[1].index()], 3.0, 1e-12);
}

TEST(Describe, SurfacesAreInformative) {
  const Instance inst = braess(true);
  const Path& path = inst.path(PathId{0});
  EXPECT_NE(path.describe(inst.graph()).find("v0"), std::string::npos);
  const Policy policy = make_safe_policy(inst, 0.5);
  EXPECT_NE(policy.name().find("alpha-capped"), std::string::npos);
}

// ------------------------------------------------------------- simulators

TEST(FluidSimulator, EulerMethodAgreesOnShortHorizon) {
  const Instance inst = pigou();
  const Policy policy = make_uniform_linear_policy(inst);
  const FluidSimulator sim(inst, policy);
  SimulationOptions rk4;
  rk4.update_period = 0.1;
  rk4.horizon = 2.0;
  SimulationOptions euler = rk4;
  euler.method = IntegrationMethod::kEuler;
  euler.step_size = 1e-4;
  const SimulationResult a = sim.run(FlowVector::uniform(inst), rk4);
  const SimulationResult b = sim.run(FlowVector::uniform(inst), euler);
  EXPECT_NEAR(a.final_flow[PathId{0}], b.final_flow[PathId{0}], 1e-5);
}

TEST(FluidSimulator, RenormaliseOffStillFeasibleForExactMethod) {
  const Instance inst = pigou();
  const Policy policy = make_uniform_linear_policy(inst);
  const FluidSimulator sim(inst, policy);
  SimulationOptions options;
  options.update_period = 0.25;
  options.horizon = 10.0;
  options.method = IntegrationMethod::kExact;
  options.renormalise = false;
  const SimulationResult result = sim.run(FlowVector::uniform(inst), options);
  // The exact phase map is stochastic, so feasibility holds without help.
  EXPECT_TRUE(is_feasible(inst, result.final_flow.values(), 1e-9));
}

TEST(RoundCounter, LastBadSemantics) {
  const Instance inst = pigou();
  RoundCounter counter(inst, RoundCounter::Mode::kStrict, 0.1, 0.05);
  const PhaseObserver obs = counter.observer();
  auto fire = [&](std::size_t index, std::span<const double> before) {
    PhaseInfo info;
    info.index = index;
    info.flow_before = before;
    info.flow_after = before;
    obs(info);
  };
  const std::vector<double> bad{0.5, 0.5};   // gap 0.5 > delta
  const std::vector<double> good{1.0, 0.0};  // equilibrium
  fire(0, bad);
  fire(1, good);
  fire(2, bad);
  fire(3, good);
  EXPECT_EQ(counter.total_rounds(), 4u);
  EXPECT_EQ(counter.bad_rounds(), 2u);
  EXPECT_EQ(counter.last_bad_round(), 2u);
}

TEST(BestResponseSimulator, StopGapShortCircuits) {
  const Instance inst = pigou();
  const BestResponseSimulator sim(inst);
  BestResponseOptions options;
  options.update_period = 0.5;
  options.horizon = 1'000.0;
  options.stop_gap = 1e-6;
  const SimulationResult result = sim.run(FlowVector::uniform(inst), options);
  EXPECT_TRUE(result.stopped_by_gap);
  EXPECT_LT(result.final_time, 1'000.0);
}

// ----------------------------------------------------------------- social

TEST(SocialOptimum, BraessOptimumAvoidsShortcutOveruse) {
  const Instance inst = braess(true);
  const SocialOptimumResult opt = solve_social_optimum(inst);
  EXPECT_TRUE(opt.converged);
  EXPECT_NEAR(opt.social_cost, 1.5, 1e-4);  // optimum = no-shortcut split
}

TEST(PriceOfAnarchy, MonotoneInPigouDegree) {
  double previous = 1.0;
  for (const double d : {1.0, 2.0, 4.0}) {
    Graph g(2);
    const EdgeId e1 = g.add_edge(VertexId{0}, VertexId{1});
    const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
    InstanceBuilder b(std::move(g));
    b.set_latency(e1, monomial(1.0, d));
    b.set_latency(e2, constant(1.0));
    b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
    const Instance inst = std::move(b).build();
    const double ratio = price_of_anarchy(inst).ratio;
    EXPECT_GT(ratio, previous);
    previous = ratio;
  }
}

// ------------------------------------------------------------------ misc

TEST(Quadrature, MatchesClosedFormsAcrossFamilies) {
  std::vector<LatencyPtr> fns;
  fns.push_back(bpr(1.0, 0.3, 0.5, 3.0));
  fns.push_back(mm1(1.2));
  fns.push_back(polynomial({0.2, 0.1, 0.4}));
  for (const auto& fn : fns) {
    for (double x : {0.3, 0.7, 1.0}) {
      const double numeric = integrate(
          [&fn](double u) { return fn->value(u); }, 0.0, x, 1e-12);
      EXPECT_NEAR(numeric, fn->integral(x), 1e-9) << fn->describe();
    }
  }
}

TEST(InstanceDescribe, SafePeriodConsistentWithPolicyFactories) {
  Rng rng(12);
  const Instance inst = grid(3, 3, rng);
  const Policy linear_policy = make_uniform_linear_policy(inst);
  const double t1 = inst.safe_update_period(*linear_policy.smoothness());
  // make_safe_policy at exactly t1 must produce alpha equal to the
  // linear rule's alpha (both sides of the same formula).
  const Policy inverse = make_safe_policy(inst, t1);
  EXPECT_NEAR(*inverse.smoothness(), *linear_policy.smoothness(), 1e-12);
}

}  // namespace
}  // namespace staleflow
