// Tests for the deterministic execution layer (src/exec/): sub-batch
// splitting arithmetic, task-graph dependency order, exception
// propagation and re-runs, concurrent and nested graphs on one executor,
// stall windows, and the end-to-end property the layer exists for — route
// service dynamics that are byte-identical across 1/2/8 worker threads
// with sub-batch splitting forced on.
//
// Runs under `ctest -L exec` in the sanitizer CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/generators.h"
#include "service/service.h"
#include "sweep/sweep.h"
#include "exec/exec.h"
#include "faults/fault_plan.h"

namespace staleflow {
namespace {

// ----------------------------------------------------------- splitting

TEST(SubBatchSplit, CountDependsOnBatchSizeOnly) {
  // target 0 = never split; small batches never split; ceil division
  // above the target; clamped to max_chunks (one client per chunk floor).
  EXPECT_EQ(sub_batch_count(0, 100, 8), 1u);
  EXPECT_EQ(sub_batch_count(100, 100, 8), 1u);
  EXPECT_EQ(sub_batch_count(101, 100, 8), 2u);
  EXPECT_EQ(sub_batch_count(1000, 100, 8), 8u);  // clamped from 10
  EXPECT_EQ(sub_batch_count(1000, 0, 8), 1u);
  EXPECT_THROW(sub_batch_count(10, 4, 0), std::invalid_argument);
}

TEST(SubBatchSplit, AutoTargetDependsOnLoadAndLanesOnly) {
  // target = max(256, ceil(total / (4 * lanes))): ~4 sub-batches per lane
  // once the load clears the floor, so the epoch task count stays stable
  // across load levels.
  EXPECT_EQ(auto_sub_batch_target(0, 4), 256u);       // floor
  EXPECT_EQ(auto_sub_batch_target(4096, 4), 256u);    // exactly the floor
  EXPECT_EQ(auto_sub_batch_target(160'000, 4), 10'000u);
  EXPECT_EQ(auto_sub_batch_target(160'001, 4), 10'001u);  // ceil
  EXPECT_EQ(auto_sub_batch_target(160'000, 8), 5'000u);
  EXPECT_THROW(auto_sub_batch_target(100, 0), std::invalid_argument);
  // The derived pieces-per-lane really is ~4 above the floor.
  const std::size_t total = 1'000'000;
  const std::size_t lanes = 8;
  const std::size_t per_lane = total / lanes;
  EXPECT_EQ(sub_batch_count(per_lane, auto_sub_batch_target(total, lanes),
                            per_lane),
            4u);
}

TEST(SubBatchSplit, RangesPartitionExactlyAndBalanced) {
  for (const std::size_t total : {0u, 1u, 7u, 64u, 1000u}) {
    for (const std::size_t chunks : {1u, 2u, 3u, 7u, 16u}) {
      std::size_t covered = 0;
      std::size_t smallest = total + 1;
      std::size_t largest = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const SubRange range = sub_range(total, chunks, c);
        EXPECT_EQ(range.begin, covered) << total << "/" << chunks;
        covered += range.count;
        smallest = std::min(smallest, range.count);
        largest = std::max(largest, range.count);
      }
      EXPECT_EQ(covered, total);
      EXPECT_LE(largest - smallest, 1u) << total << "/" << chunks;
    }
  }
  EXPECT_THROW(sub_range(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(sub_range(10, 2, 2), std::invalid_argument);
}

// ----------------------------------------------------------- TaskGraph

TEST(TaskGraph, RejectsNullTasksAndForwardDependencies) {
  TaskGraph graph;
  EXPECT_THROW(graph.add(nullptr), std::invalid_argument);
  const TaskGraph::NodeId first = graph.add([] {});
  EXPECT_THROW(graph.add([] {}, {first + 1}), std::invalid_argument);
  EXPECT_THROW(graph.add([] {}, {first + 7}), std::invalid_argument);
}

TEST(TaskGraph, DependenciesCompleteBeforeDependents) {
  // A diamond lattice: layer k depends on two nodes of layer k-1. Every
  // node asserts its dependencies' done flags, so any ordering violation
  // fails deterministically — run wide to give the scheduler chances.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    Executor executor(threads);
    constexpr std::size_t kLayers = 6;
    constexpr std::size_t kWidth = 8;
    TaskGraph graph;
    std::vector<std::vector<TaskGraph::NodeId>> ids(kLayers);
    std::vector<std::atomic<bool>> done(kLayers * kWidth);
    for (auto& flag : done) flag = false;
    for (std::size_t layer = 0; layer < kLayers; ++layer) {
      for (std::size_t i = 0; i < kWidth; ++i) {
        const auto fn = [&done, layer, i] {
          if (layer > 0) {
            const std::size_t left = (layer - 1) * kWidth + i;
            const std::size_t right = (layer - 1) * kWidth + (i + 1) % kWidth;
            ASSERT_TRUE(done[left].load());
            ASSERT_TRUE(done[right].load());
          }
          done[layer * kWidth + i] = true;
        };
        if (layer == 0) {
          ids[layer].push_back(graph.add(fn));
        } else {
          ids[layer].push_back(graph.add(
              fn, {ids[layer - 1][i], ids[layer - 1][(i + 1) % kWidth]}));
        }
      }
    }
    executor.run(graph);
    for (const auto& flag : done) EXPECT_TRUE(flag.load());
  }
}

TEST(TaskGraph, ExceptionPropagatesAndSkipsDownstream) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Executor executor(threads);
    TaskGraph graph;
    std::atomic<bool> downstream_ran{false};
    const TaskGraph::NodeId boom =
        graph.add([] { throw std::runtime_error("node exploded"); });
    graph.add([&downstream_ran] { downstream_ran = true; }, {boom});
    try {
      executor.run(graph);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "node exploded");
    }
    EXPECT_FALSE(downstream_ran.load());
  }
}

// ------------------------------------------------------------ Executor

TEST(Executor, RunsEveryIndependentNodeOnceAtAnyWidth) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    Executor executor(threads);
    std::vector<int> hits(257, 0);
    TaskGraph graph;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      graph.add([&hits, i] { hits[i] += 1; });
    }
    executor.run(graph);
    for (const int hit : hits) EXPECT_EQ(hit, 1);
  }
}

TEST(Executor, InlineModeRunsNodesInInsertionOrder) {
  Executor executor(1);
  std::vector<std::size_t> order;
  TaskGraph graph;
  for (std::size_t i = 0; i < 16; ++i) {
    graph.add([&order, i] { order.push_back(i); });
  }
  executor.run(graph);
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, RejectsThreadCountsAboveTheLimit) {
  EXPECT_THROW(Executor(Executor::kMaxThreads + 1), std::invalid_argument);
  EXPECT_THROW(Executor(static_cast<std::size_t>(-1)), std::invalid_argument);
  Executor hardware(0);  // 0 = hardware concurrency, clamped to the limit
  TaskGraph graph;
  graph.add([] {});
  hardware.run(graph);
}

TEST(Executor, ConcurrentGraphsKeepTheirOwnErrors) {
  // Two threads run graphs on one executor at once; the failing graph's
  // error reaches only its own caller, and the healthy graph completes.
  Executor executor(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> healthy_done{0};
    bool healthy_threw = false;
    bool failing_threw = false;
    std::thread healthy([&] {
      TaskGraph graph;
      for (int i = 0; i < 32; ++i) {
        graph.add([&healthy_done] { healthy_done.fetch_add(1); });
      }
      try {
        executor.run(graph);
      } catch (...) {
        healthy_threw = true;
      }
    });
    std::thread failing([&] {
      TaskGraph graph;
      for (int i = 0; i < 32; ++i) {
        graph.add([i] {
          if (i == 7) throw std::runtime_error("graph boom");
        });
      }
      try {
        executor.run(graph);
      } catch (const std::runtime_error& e) {
        failing_threw = std::string(e.what()) == "graph boom";
      }
    });
    healthy.join();
    failing.join();
    EXPECT_FALSE(healthy_threw) << round;
    EXPECT_EQ(healthy_done.load(), 32) << round;
    EXPECT_TRUE(failing_threw) << round;
  }
}

TEST(Executor, NestedGraphsShareTwoThreadsWithoutDeadlock) {
  // Every outer node runs an inner graph on the SAME executor and waits
  // for it — the sweep-cell-inside-the-sweep shape. With 2 threads total
  // this deadlocks unless waiters help drain their own graphs.
  Executor executor(2);
  std::atomic<int> total{0};
  TaskGraph outer;
  for (int i = 0; i < 8; ++i) {
    outer.add([&executor, &total] {
      TaskGraph inner;
      for (int j = 0; j < 8; ++j) inner.add([&total] { total.fetch_add(1); });
      executor.run(inner);
    });
  }
  executor.run(outer);
  EXPECT_EQ(total.load(), 64);
}

TEST(Executor, GraphRunsAgainAfterAFailedRun) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Executor executor(threads);
    bool fail = true;
    std::atomic<int> tail_runs{0};
    TaskGraph graph;
    const TaskGraph::NodeId head = graph.add([&fail] {
      if (fail) throw std::runtime_error("first run fails");
    });
    for (int i = 0; i < 8; ++i) {
      graph.add([&tail_runs] { tail_runs.fetch_add(1); }, {head});
    }
    EXPECT_THROW(executor.run(graph), std::runtime_error);
    EXPECT_EQ(tail_runs.load(), 0);
    fail = false;
    executor.run(graph);
    EXPECT_EQ(tail_runs.load(), 8);
  }
}

TEST(Executor, StallHoldingEveryWorkerStillCompletesTheGraph) {
  // The window holds more workers than exist (all 3): the caller must
  // run the whole graph itself, and run() returns after the window.
  const faults::FaultPlan plan =
      faults::parse_fault_plan("stall:workers=8,ms=20,at=0,for=2");
  const faults::FaultSchedule schedule =
      faults::FaultSchedule::materialize(plan, 1, 4);
  Executor executor(4);
  executor.set_fault_schedule(&schedule);
  for (int run = 0; run < 3; ++run) {  // two stalled runs, one healthy
    std::atomic<int> done{0};
    TaskGraph graph;
    const TaskGraph::NodeId first = graph.add([&done] { done.fetch_add(1); });
    for (int i = 0; i < 16; ++i) {
      graph.add([&done] { done.fetch_add(1); }, {first});
    }
    executor.run(graph);
    EXPECT_EQ(done.load(), 17) << run;
  }
}

// ------------------------------------------- end-to-end byte identity

/// The property the execution layer exists for: with sub-batch splitting
/// forced (tiny split threshold, skewed bursty load), the route service
/// dynamics are byte-identical across 1, 2 and 8 worker threads.
TEST(ExecDeterminism, RouteServerByteIdenticalUnderForcedSplits) {
  const Instance instance = uniform_parallel_links(8, 0.5, 1.0);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = make_workload("bursty:30000,2000,3,2");

  RouteServerOptions options;
  options.update_period = 0.1;
  options.epochs = 15;
  options.num_clients = 1000;
  options.shards = 4;
  options.sub_batch_queries = 128;  // force many sub-batches per shard
  options.seed = 23;
  options.record_latency = false;

  // Reference: single-threaded.
  RouteServer reference_server(instance, policy, *workload);
  const RouteServerResult reference =
      reference_server.run(FlowVector::uniform(instance), options);
  // The forced split actually split: more sub-batch streams than shards
  // means the bursty peaks exceeded the threshold.
  EXPECT_GT(reference.total_queries, 4u * 128u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    RouteServer server(instance, policy, *workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(instance), options);
    const std::string label = std::to_string(threads) + " threads";
    EXPECT_EQ(telemetry_digest(result.epochs),
              telemetry_digest(reference.epochs))
        << label;
    ASSERT_EQ(result.epochs.size(), reference.epochs.size()) << label;
    for (std::size_t e = 0; e < reference.epochs.size(); ++e) {
      EXPECT_EQ(result.epochs[e].queries, reference.epochs[e].queries);
      EXPECT_EQ(result.epochs[e].migrations, reference.epochs[e].migrations);
      EXPECT_EQ(result.epochs[e].wardrop_gap,
                reference.epochs[e].wardrop_gap);
      EXPECT_EQ(result.epochs[e].route_p50, reference.epochs[e].route_p50);
      EXPECT_EQ(result.epochs[e].route_p999, reference.epochs[e].route_p999);
    }
    for (std::size_t p = 0; p < reference.final_flow.values().size(); ++p) {
      EXPECT_EQ(result.final_flow.values()[p],
                reference.final_flow.values()[p])
          << label;
    }
    // Histogram equality is exact: same counts, extremes and sum.
    EXPECT_TRUE(result.route_latency == reference.route_latency) << label;
  }
}

/// The ROADMAP "adaptive sub-batch target" follow-on, pinned: with
/// --sub-batch auto the split threshold is re-derived every epoch from
/// that epoch's total arrivals (so a bursty load splits on-peak and not
/// off-peak), and the dynamics stay byte-identical at 1 vs 8 worker
/// threads — the adaptive split is scheduling-independent.
TEST(ExecDeterminism, AutoSubBatchByteIdenticalAcrossOneAndEightThreads) {
  // Braess, NOT a symmetric parallel-link instance: the uniform start
  // must be off-equilibrium so migrations happen and the digest can see
  // the stream layout (a perfectly symmetric instance never migrates and
  // its digest is split-blind).
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  // Peaks offer 40000 * 0.1 = 4000 queries over 4 shards: 1000 per shard
  // against an auto target of max(256, 4000/16) = 256 -> 4 sub-batches
  // per peak shard; troughs (200 * 0.1 = 20) stay single-batch.
  const WorkloadPtr workload = make_workload("bursty:40000,200,3,2");

  RouteServerOptions options;
  options.update_period = 0.1;
  options.epochs = 15;
  options.num_clients = 1000;
  options.shards = 4;
  options.sub_batch_auto = true;
  options.sub_batch_queries = 0;  // must be ignored in auto mode
  options.seed = 29;
  options.record_latency = false;

  std::vector<EpochSummary> reference;
  std::vector<double> reference_flow;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    options.threads = threads;
    RouteServer server(instance, policy, *workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(instance), options);
    if (threads == 1) {
      reference = result.epochs;
      reference_flow.assign(result.final_flow.values().begin(),
                            result.final_flow.values().end());
      continue;
    }
    EXPECT_EQ(telemetry_digest(result.epochs), telemetry_digest(reference));
    ASSERT_EQ(result.epochs.size(), reference.size());
    for (std::size_t e = 0; e < reference.size(); ++e) {
      EXPECT_EQ(result.epochs[e].queries, reference[e].queries);
      EXPECT_EQ(result.epochs[e].migrations, reference[e].migrations);
      EXPECT_EQ(result.epochs[e].wardrop_gap, reference[e].wardrop_gap);
      EXPECT_EQ(result.epochs[e].route_p50, reference[e].route_p50);
      EXPECT_EQ(result.epochs[e].route_p999, reference[e].route_p999);
    }
    for (std::size_t p = 0; p < reference_flow.size(); ++p) {
      EXPECT_EQ(result.final_flow.values()[p], reference_flow[p]);
    }
  }

  // Auto mode is a DIFFERENT dynamics configuration than the default
  // fixed threshold whenever it actually splits differently — here the
  // peaks split (auto) vs never split (default 16384), so the digests
  // must differ; pinning that prevents auto from silently aliasing the
  // fixed-threshold stream layout.
  options.sub_batch_auto = false;
  options.sub_batch_queries = 16384;
  options.threads = 1;
  RouteServer server(instance, policy, *workload);
  const RouteServerResult fixed =
      server.run(FlowVector::uniform(instance), options);
  EXPECT_NE(telemetry_digest(fixed.epochs), telemetry_digest(reference));
}

/// Same property one layer up: a service sweep whose cells parallelize
/// internally on the shared executor (forced splits) stays bit-identical
/// across sweep thread counts, digest included.
TEST(ExecDeterminism, ServiceSweepSharedPoolByteIdentical) {
  ExperimentSpec spec;
  spec.simulator = SimulatorKind::kService;
  spec.scenarios = {"braess"};
  spec.policies = {named_policy("replicator")};
  spec.update_periods = {0.1};
  spec.workloads = {"bursty:20000,1000,2,2", "closed-loop:1500"};
  spec.shard_counts = {1, 4};
  spec.num_clients = 1500;
  spec.sub_batch_queries = 200;  // in-cell parallelism on the shared pool
  spec.replicas = 1;
  spec.horizon = 1.5;

  const SweepRunner runner;
  const SweepResult one = runner.run(spec, 1);
  const SweepResult four = runner.run(spec, 4);
  ASSERT_EQ(one.cells.size(), four.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    ASSERT_TRUE(one.cells[i].ok) << one.cells[i].error;
    EXPECT_EQ(one.cells[i].queries, four.cells[i].queries) << i;
    EXPECT_EQ(one.cells[i].final_gap, four.cells[i].final_gap) << i;
    EXPECT_TRUE(one.cells[i].latency == four.cells[i].latency) << i;
  }
  EXPECT_EQ(cells_digest(one), cells_digest(four));
}

}  // namespace
}  // namespace staleflow
