// The deterministic execution layer: one Executor, its workers, and the
// TaskGraph as the only unit of work.
//
// Everything parallel in staleflow follows the same discipline — work is
// cut into tasks that share no mutable state, anything random or
// order-sensitive is derived *before* dispatch, and reductions walk a
// canonical order — so the only thing a subsystem needs from the runtime
// is "run these tasks, some after others, and tell me when they are
// done". That is Executor::run over a TaskGraph. One executor is shared by
// the sweep runner and the route servers inside its cells (a kService
// sweep cell runs its epoch graphs on the same workers as the sweep's
// cell graph instead of colliding nested pools), runs everything inline in
// deterministic order when threads == 1, and guarantees that the values
// computed are identical either way.
//
// Nodes may only depend on earlier nodes, so insertion order is a
// topological order, which is exactly the order the inline mode executes
// — the parallel schedule can only reorder work that is independent by
// construction. This is how the route server pipelines an epoch: serve
// nodes feed a fold node, which feeds the next snapshot's board post +
// per-commodity CDF nodes in parallel with the telemetry summary node.
//
// sub_batch_count / sub_range are the deterministic work-splitting
// helpers: split points are derived from batch sizes alone (never from
// thread count or scheduling), so a skewed batch parallelizes while
// 1-vs-N-thread runs stay byte-identical.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace staleflow {

namespace faults {
class FaultSchedule;
}

/// A dependency graph of tasks. Build with add(), hand to Executor::run().
/// Nodes may only depend on nodes added before them (enforced), so the
/// graph is acyclic by construction and node order is a valid serial
/// schedule.
class TaskGraph {
 public:
  using NodeId = std::size_t;

  /// Adds a node that runs `fn` once every node in `deps` has finished.
  /// Throws std::invalid_argument if fn is null or any dep is not an
  /// earlier node's id.
  NodeId add(std::function<void()> fn, std::span<const NodeId> deps = {});
  NodeId add(std::function<void()> fn, std::initializer_list<NodeId> deps);

  std::size_t size() const noexcept { return nodes_.size(); }

 private:
  friend class Executor;

  struct Node {
    std::function<void()> fn;
    std::vector<NodeId> dependents;  // nodes waiting on this one
    std::size_t dependency_count = 0;
  };

  std::vector<Node> nodes_;

  // State of the current run, guarded by the running executor's mutex:
  // unfinished dependencies per node, nodes queued or running, and the
  // first node error (set = fail-fast, nodes not yet started are skipped).
  std::vector<std::size_t> remaining_;
  std::size_t pending_ = 0;
  std::exception_ptr error_;
};

/// Runs task graphs on the calling thread plus `threads - 1` workers.
///
/// threads == 1 (the default) is inline mode: no workers, every node runs
/// on the calling thread in insertion order — the deterministic reference
/// schedule. threads == 0 picks hardware concurrency. With threads == T > 1
/// the executor owns T-1 workers draining one FIFO of ready nodes, and the
/// thread in run() helps with its own graph's nodes while it waits, so T
/// threads make progress — and a node may itself run a graph on the same
/// executor without deadlock or oversubscription, which is how sweep cells
/// and the route server share the workers.
///
/// The counter `pool.tasks` counts nodes run by workers or by helping
/// waiters (0 in inline mode); `exec.graphs` and `exec.nodes` count every
/// run() and the nodes of its graphs.
class Executor {
 public:
  /// Largest accepted thread count: a count the host cannot spawn fails
  /// fast instead of exhausting its process table.
  static constexpr std::size_t kMaxThreads = 1024;

  /// Starts threads - 1 workers. Throws std::invalid_argument when
  /// threads > kMaxThreads, or when the host cannot start a worker (the
  /// workers already started are joined first).
  explicit Executor(std::size_t threads = 1);

  /// Joins the workers. No run() may be in flight.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Executes every node of the graph, respecting dependencies, and
  /// waits. Failure is fail-fast: the first node exception is rethrown
  /// and every node that has not yet started — downstream of the failure
  /// or not — is skipped, so which independent nodes ran is
  /// scheduling-dependent after an error (inline mode skips everything
  /// after the throwing node). Don't hang cleanup side effects on graph
  /// nodes. A graph may be run again after run() returns. Any number of
  /// threads (nodes included) may run distinct graphs concurrently.
  void run(TaskGraph& graph);

  /// Installs a fault schedule whose worker-stall windows apply to this
  /// executor's graph runs (nullptr = healthy, the default). A stall
  /// window covering the N-th graph this executor runs queues a graph of
  /// sleep nodes, one per held worker, ahead of the caller's roots —
  /// wall-clock contention only, never dynamics (node *values* are
  /// scheduling-independent by the determinism contract). No-op in
  /// inline mode (there are no workers to stall). The schedule must
  /// outlive every run().
  void set_fault_schedule(const faults::FaultSchedule* schedule) noexcept {
    fault_schedule_ = schedule;
  }

 private:
  struct Entry {
    TaskGraph* graph;
    TaskGraph::NodeId node;
  };

  void start(TaskGraph& graph);
  std::exception_ptr wait(TaskGraph& graph);
  void execute(Entry entry, std::unique_lock<std::mutex>& lock);
  void worker_loop();
  void stop_workers() noexcept;

  std::vector<std::thread> workers_;  // empty in inline mode
  std::deque<Entry> queue_;           // ready nodes, FIFO
  std::mutex mutex_;
  std::condition_variable wake_;  // new ready nodes, or a graph finished
  bool stopping_ = false;
  const faults::FaultSchedule* fault_schedule_ = nullptr;
  // Graph sequence number for stall-window lookup; atomic because sweep
  // cells run graphs on one shared executor concurrently.
  std::atomic<std::uint64_t> graphs_run_{0};
};

/// Number of sub-batches a batch of `items` splits into: ceil(items /
/// target), clamped to [1, max_chunks]. Depends only on the batch size —
/// never on thread count — so the split is part of the deterministic
/// replay contract. target == 0 means "never split". max_chunks must be
/// >= 1.
std::size_t sub_batch_count(std::size_t items, std::size_t target,
                            std::size_t max_chunks);

/// Half-open index range of chunk `chunk` when [0, total) is cut into
/// `chunks` balanced contiguous pieces (sizes differ by at most one, the
/// first total % chunks pieces are the larger ones). Requires chunks >= 1
/// and chunk < chunks.
struct SubRange {
  std::size_t begin = 0;
  std::size_t count = 0;
};
SubRange sub_range(std::size_t total, std::size_t chunks, std::size_t chunk);

/// The adaptive sub-batch target ("--sub-batch auto"): a split threshold
/// derived from the batch's total size so the task count stays stable
/// across load levels — each of `lanes` lanes (shards) aims for about
/// four sub-batches, i.e. target = ceil(total / (4 * lanes)), floored at
/// 256 queries so tiny epochs never shatter into per-query tasks. A pure
/// function of (total, lanes) — never thread count or scheduling — so it
/// is part of the deterministic replay contract, like a fixed target.
/// Requires lanes >= 1.
std::size_t auto_sub_batch_target(std::size_t total, std::size_t lanes);

}  // namespace staleflow
