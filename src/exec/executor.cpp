#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "faults/fault_plan.h"
#include "trace/metrics.h"
#include "trace/recorder.h"

namespace staleflow {

// ------------------------------------------------------------- TaskGraph

TaskGraph::NodeId TaskGraph::add(std::function<void()> fn,
                                 std::span<const NodeId> deps) {
  if (!fn) {
    throw std::invalid_argument("TaskGraph::add: null task");
  }
  const NodeId id = nodes_.size();
  for (const NodeId dep : deps) {
    if (dep >= id) {
      throw std::invalid_argument(
          "TaskGraph::add: dependencies must reference earlier nodes");
    }
  }
  Node node;
  node.fn = std::move(fn);
  node.dependency_count = deps.size();
  nodes_.push_back(std::move(node));
  for (const NodeId dep : deps) {
    nodes_[dep].dependents.push_back(id);
  }
  return id;
}

TaskGraph::NodeId TaskGraph::add(std::function<void()> fn,
                                 std::initializer_list<NodeId> deps) {
  return add(std::move(fn), std::span<const NodeId>(deps.begin(), deps.size()));
}

void TaskGraph::run_inline() {
  // Insertion order is a topological order (deps point backward), so this
  // IS the deterministic reference schedule.
  for (Node& node : nodes_) node.fn();
}

void TaskGraph::run_on(ThreadPool& pool) {
  std::vector<NodeId> roots;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    remaining_.assign(nodes_.size(), 0);
    submitted_.assign(nodes_.size(), false);
    cancelled_ = false;
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      remaining_[id] = nodes_[id].dependency_count;
      if (remaining_[id] == 0) {
        submitted_[id] = true;
        roots.push_back(id);
      }
    }
  }
  const ThreadPool::CompletionToken token = pool.make_token();
  for (const NodeId id : roots) submit_node(pool, token, id);
  pool.wait(token);
}

void TaskGraph::submit_node(ThreadPool& pool,
                            const ThreadPool::CompletionToken& token,
                            NodeId id) {
  auto run_node = [this, &pool, token, id] {
        bool skip;
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          skip = cancelled_;
        }
        std::exception_ptr error;
        if (!skip) {
          try {
            nodes_[id].fn();
          } catch (...) {
            error = std::current_exception();
          }
        }
        std::vector<NodeId> ready;
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          if (error && !cancelled_) {
            // First failure: release every not-yet-submitted node as a
            // skip so the token drains instead of deadlocking on nodes
            // whose dependencies will never finish.
            cancelled_ = true;
            for (NodeId other = 0; other < nodes_.size(); ++other) {
              if (!submitted_[other]) {
                submitted_[other] = true;
                ready.push_back(other);
              }
            }
          } else {
            for (const NodeId dependent : nodes_[id].dependents) {
              if (--remaining_[dependent] == 0 && !submitted_[dependent]) {
                submitted_[dependent] = true;
                ready.push_back(dependent);
              }
            }
          }
        }
        for (const NodeId next : ready) submit_node(pool, token, next);
        if (error) std::rethrow_exception(error);  // lands in the token
  };
  pool.submit(std::move(run_node), token);
}

// -------------------------------------------------------------- Executor

Executor::Executor(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_ = threads;
  if (threads > 1) {
    // The calling thread helps while waiting, so T-1 workers + the caller
    // give exactly T threads of progress.
    pool_ = std::make_unique<ThreadPool>(threads - 1);
  }
}

void Executor::parallel_for(std::size_t count,
                            const std::function<void(std::size_t)>& fn) {
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const ThreadPool::CompletionToken token = pool_->make_token();
  for (std::size_t i = 0; i < count; ++i) {
    pool_->submit([&fn, i] { fn(i); }, token);
  }
  pool_->wait(token);
}

void Executor::run(TaskGraph& graph) {
  static trace::Counter& graphs_counter =
      trace::MetricsRegistry::global().counter("exec.graphs");
  static trace::Counter& nodes_counter =
      trace::MetricsRegistry::global().counter("exec.nodes");
  graphs_counter.inc();
  nodes_counter.add(graph.size());
  trace::Span span(trace::EventKind::kGraphSpan, /*tenant=*/0,
                   /*epoch=*/0, /*arg=*/pool_ == nullptr ? 0 : 1);
  span.value(graph.size());
  const std::uint64_t graph_index =
      graphs_run_.fetch_add(1, std::memory_order_relaxed);
  if (pool_ == nullptr) {
    graph.run_inline();
    return;
  }

  // Injected worker stall: submit sleep tasks BEFORE the graph's roots so
  // the FIFO queue hands them to workers first — those workers are then
  // out of service for the window while the graph runs on whoever is
  // left (the caller helps, so progress is guaranteed even if every
  // worker is held). Purely wall-clock contention.
  ThreadPool::CompletionToken stall_token;
  if (fault_schedule_ != nullptr) {
    const faults::FaultSchedule::Stall stall =
        fault_schedule_->stall_at(graph_index);
    if (stall.workers > 0 && stall.ms > 0) {
      static trace::Counter& stalls_counter =
          trace::MetricsRegistry::global().counter("faults.stalls");
      stalls_counter.inc();
      if (trace::active()) {
        trace::instant(
            trace::EventKind::kFaultSpan, /*tenant=*/0, graph_index,
            static_cast<std::uint64_t>(faults::FaultKind::kWorkerStall),
            stall.ms);
      }
      stall_token = pool_->make_token();
      const std::size_t held =
          std::min<std::size_t>(stall.workers, pool_->size());
      for (std::size_t w = 0; w < held; ++w) {
        pool_->submit(
            [ms = stall.ms] {
              std::this_thread::sleep_for(std::chrono::milliseconds(ms));
            },
            stall_token);
      }
    }
  }

  graph.run_on(*pool_);
  if (stall_token != nullptr) pool_->wait(stall_token);
}

// ------------------------------------------------------------- splitting

std::size_t sub_batch_count(std::size_t items, std::size_t target,
                            std::size_t max_chunks) {
  if (max_chunks == 0) {
    throw std::invalid_argument("sub_batch_count: max_chunks must be >= 1");
  }
  if (target == 0 || items <= target) return 1;
  const std::size_t chunks = (items + target - 1) / target;
  return std::min(chunks, max_chunks);
}

SubRange sub_range(std::size_t total, std::size_t chunks, std::size_t chunk) {
  if (chunks == 0 || chunk >= chunks) {
    throw std::invalid_argument("sub_range: need chunk < chunks, chunks >= 1");
  }
  const std::size_t base = total / chunks;
  const std::size_t extra = total % chunks;
  SubRange range;
  range.begin = chunk * base + std::min(chunk, extra);
  range.count = base + (chunk < extra ? 1 : 0);
  return range;
}

std::size_t auto_sub_batch_target(std::size_t total, std::size_t lanes) {
  if (lanes == 0) {
    throw std::invalid_argument("auto_sub_batch_target: lanes must be >= 1");
  }
  constexpr std::size_t kPiecesPerLane = 4;
  constexpr std::size_t kMinTarget = 256;
  const std::size_t pieces = kPiecesPerLane * lanes;
  return std::max(kMinTarget, (total + pieces - 1) / pieces);
}

}  // namespace staleflow
