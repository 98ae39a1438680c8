#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
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

// -------------------------------------------------------------- Executor

Executor::Executor(std::size_t threads) {
  if (threads == 0) {
    threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                      kMaxThreads);
  }
  if (threads > kMaxThreads) {
    throw std::invalid_argument("Executor: " + std::to_string(threads) +
                                " threads exceeds the limit of " +
                                std::to_string(kMaxThreads));
  }
  // The thread in run() helps while waiting, so T-1 workers + the caller
  // give exactly T threads of progress.
  workers_.reserve(threads - 1);
  try {
    for (std::size_t i = 1; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (const std::system_error& e) {
    stop_workers();
    throw std::invalid_argument("Executor: cannot start " +
                                std::to_string(threads - 1) +
                                " worker threads on this host (" + e.what() +
                                ")");
  }
}

Executor::~Executor() { stop_workers(); }

void Executor::stop_workers() noexcept {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Executor::run(TaskGraph& graph) {
  static trace::Counter& graphs_counter =
      trace::MetricsRegistry::global().counter("exec.graphs");
  static trace::Counter& nodes_counter =
      trace::MetricsRegistry::global().counter("exec.nodes");
  graphs_counter.inc();
  nodes_counter.add(graph.size());
  trace::Span span(trace::EventKind::kGraphSpan, /*tenant=*/0,
                   /*epoch=*/0, /*arg=*/workers_.empty() ? 0 : 1);
  span.value(graph.size());
  const std::uint64_t graph_index =
      graphs_run_.fetch_add(1, std::memory_order_relaxed);
  if (workers_.empty()) {
    // Insertion order is a topological order (deps point backward), so
    // this IS the deterministic reference schedule.
    for (TaskGraph::Node& node : graph.nodes_) node.fn();
    return;
  }

  // Injected worker stall: a graph of sleep nodes queued BEFORE the
  // caller's roots, so the FIFO hands them to workers first — those
  // workers are then out of service for the window while the graph runs
  // on whoever is left (the caller helps, so progress is guaranteed even
  // if every worker is held). Purely wall-clock contention.
  std::optional<TaskGraph> stall_graph;
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
      stall_graph.emplace();
      const std::size_t held =
          std::min<std::size_t>(stall.workers, workers_.size());
      for (std::size_t w = 0; w < held; ++w) {
        stall_graph->add([ms = stall.ms] {
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        });
      }
      start(*stall_graph);
    }
  }

  start(graph);
  const std::exception_ptr error = wait(graph);
  if (stall_graph) wait(*stall_graph);
  if (error) std::rethrow_exception(error);
}

void Executor::start(TaskGraph& graph) {
  const std::size_t size = graph.nodes_.size();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    graph.remaining_.resize(size);
    graph.pending_ = 0;
    graph.error_ = nullptr;
    for (TaskGraph::NodeId id = 0; id < size; ++id) {
      graph.remaining_[id] = graph.nodes_[id].dependency_count;
      if (graph.remaining_[id] == 0) {
        queue_.push_back(Entry{&graph, id});
        ++graph.pending_;
      }
    }
  }
  wake_.notify_all();
}

std::exception_ptr Executor::wait(TaskGraph& graph) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (graph.pending_ != 0) {
    // Help with our own graph: run its oldest queued node here. Nodes of
    // other graphs are left to the workers (and to their own waiters) —
    // running an arbitrary node while it may itself block on us is how
    // nested pools deadlock.
    const auto it = std::find_if(queue_.begin(), queue_.end(),
                                 [&](const Entry& e) { return e.graph == &graph; });
    if (it != queue_.end()) {
      const Entry entry = *it;
      queue_.erase(it);
      execute(entry, lock);
      continue;
    }
    // Nothing of ours queued: the rest of the graph is running on other
    // threads. Sleep until a completion (or new work) shows up.
    wake_.wait(lock);
  }
  return std::exchange(graph.error_, nullptr);
}

void Executor::execute(Entry entry, std::unique_lock<std::mutex>& lock) {
  static trace::Counter& tasks_counter =
      trace::MetricsRegistry::global().counter("pool.tasks");
  TaskGraph& graph = *entry.graph;
  std::exception_ptr error;
  if (graph.error_ == nullptr) {  // fail-fast: skip after the first error
    lock.unlock();
    tasks_counter.inc();
    try {
      graph.nodes_[entry.node].fn();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
  }
  bool wake = false;
  if (error != nullptr) {
    if (graph.error_ == nullptr) graph.error_ = error;
  } else if (graph.error_ == nullptr) {
    for (const TaskGraph::NodeId next : graph.nodes_[entry.node].dependents) {
      if (--graph.remaining_[next] == 0) {
        queue_.push_back(Entry{&graph, next});
        ++graph.pending_;
        wake = true;
      }
    }
  }
  // The graph may be destroyed as soon as its waiter sees pending_ == 0:
  // nothing touches it after this decrement.
  if (--graph.pending_ == 0) wake = true;
  if (wake) wake_.notify_all();
}

void Executor::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and drained
    const Entry entry = queue_.front();
    queue_.pop_front();
    execute(entry, lock);
  }
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
