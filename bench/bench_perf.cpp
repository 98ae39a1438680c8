// E12 — engine micro-benchmarks (google-benchmark): the cost of the
// building blocks every experiment leans on.
#include <benchmark/benchmark.h>

#include "staleflow/staleflow.h"

namespace staleflow {
namespace {

void BM_PathEnumerationGrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Graph g(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (c + 1 < n) g.add_edge(VertexId{r * n + c}, VertexId{r * n + c + 1});
      if (r + 1 < n) g.add_edge(VertexId{r * n + c}, VertexId{(r + 1) * n + c});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        count_simple_paths(g, VertexId{0}, VertexId{n * n - 1}));
  }
}
BENCHMARK(BM_PathEnumerationGrid)->Arg(4)->Arg(6)->Arg(8);

void BM_FlowEvaluate(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Instance inst = uniform_parallel_links(m, 0.5, 1.0);
  const FlowVector f = FlowVector::uniform(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate(inst, f.values()));
  }
}
BENCHMARK(BM_FlowEvaluate)->Arg(8)->Arg(64)->Arg(512);

void BM_PotentialClosedForm(benchmark::State& state) {
  Rng rng(3);
  const Instance inst = grid(4, 4, rng);
  const FlowVector f = FlowVector::uniform(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(potential(inst, f.values()));
  }
}
BENCHMARK(BM_PotentialClosedForm);

void BM_PhaseRatesBuild(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Instance inst = uniform_parallel_links(m, 0.5, 1.0);
  const Policy policy = make_uniform_linear_policy(inst);
  BulletinBoard board(inst);
  board.post(0.0, FlowVector::uniform(inst).values());
  for (auto _ : state) {
    benchmark::DoNotOptimize(PhaseRates(inst, policy, board));
  }
}
BENCHMARK(BM_PhaseRatesBuild)->Arg(8)->Arg(32)->Arg(128);

void BM_ExpmTransition(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Instance inst = uniform_parallel_links(m, 0.5, 1.0);
  const Policy policy = make_uniform_linear_policy(inst);
  BulletinBoard board(inst);
  board.post(0.0, FlowVector::uniform(inst).values());
  const PhaseRates rates(inst, policy, board);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rates.transition(0.25));
  }
}
BENCHMARK(BM_ExpmTransition)->Arg(8)->Arg(32)->Arg(64);

void BM_Rk4Phase(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Instance inst = uniform_parallel_links(m, 0.5, 1.0);
  const Policy policy = make_uniform_linear_policy(inst);
  BulletinBoard board(inst);
  board.post(0.0, FlowVector::uniform(inst).values());
  const PhaseRates rates(inst, policy, board);
  const OdeRhs rhs = [&rates](double, std::span<const double> y,
                              std::span<double> dydt) { rates.rhs(y, dydt); };
  const RungeKutta4 integrator(0.25 / 32.0);
  const FlowVector start = FlowVector::uniform(inst);
  for (auto _ : state) {
    std::vector<double> f(start.values().begin(), start.values().end());
    integrator.integrate(rhs, 0.0, 0.25, f);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_Rk4Phase)->Arg(8)->Arg(32)->Arg(128);

void BM_FrankWolfeSolve(benchmark::State& state) {
  Rng rng(17);
  const Instance inst = random_parallel_links(
      static_cast<std::size_t>(state.range(0)), rng);
  FrankWolfeOptions options;
  options.gap_tolerance = 1e-8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_equilibrium(inst, options));
  }
}
BENCHMARK(BM_FrankWolfeSolve)->Arg(4)->Arg(16)->Arg(64);

void BM_AgentSimulator(benchmark::State& state) {
  const Instance inst = uniform_parallel_links(8, 0.5, 1.0);
  const Policy policy = make_uniform_linear_policy(inst);
  const AgentSimulator sim(inst, policy);
  AgentSimOptions options;
  options.num_agents = static_cast<std::size_t>(state.range(0));
  options.update_period = 0.25;
  options.horizon = 1.0;
  options.seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(FlowVector::uniform(inst), options));
  }
}
BENCHMARK(BM_AgentSimulator)->Arg(1'000)->Arg(10'000);

/// One candidate draw from an m-path proportional-sampling CDF over a
/// random flow, as a route-service query makes it: the binary-search
/// reference (guided = 0) against the guide-table lookup (guided = 1).
/// Both return the same index for every variate.
void BM_SampleFromCdf(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const bool guided = state.range(1) != 0;
  const Instance inst = uniform_parallel_links(m, 0.5, 1.0);
  const Policy policy = make_replicator_policy(inst);
  Rng rng(11);
  std::vector<double> flow(m);
  double total = 0.0;
  for (double& f : flow) total += (f = rng.uniform());
  for (double& f : flow) f /= total;
  BulletinBoard board(inst);
  board.post(0.0, flow);
  GuidedCdf cdf;
  sampling_cdf(policy, inst, inst.commodity(CommodityId{0}),
               board.path_flow(), board.path_latency(), cdf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(guided ? cdf.sample(rng)
                                    : sample_from_cdf(cdf.values(), rng));
  }
}
BENCHMARK(BM_SampleFromCdf)
    ->ArgsProduct({{8, 32, 512}, {0, 1}})
    ->ArgNames({"paths", "guided"});

void BM_BestResponsePhase(benchmark::State& state) {
  const Instance inst = two_link_pulse(4.0);
  const BestResponseSimulator sim(inst);
  BestResponseOptions options;
  options.update_period = 0.1;
  options.horizon = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(FlowVector(inst, {0.7, 0.3}), options));
  }
}
BENCHMARK(BM_BestResponsePhase);

}  // namespace
}  // namespace staleflow

BENCHMARK_MAIN();
