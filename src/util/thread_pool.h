// A fixed-size worker pool with one shared FIFO queue and completion
// tokens.
//
// This pool is the single place multi-threading lives: the execution layer
// (src/exec/) builds its Executor/TaskGraph on top of it, and everything
// above that (sweep runner, route server, benches, tools) stays free of
// raw thread management. Determinism discipline: tasks must never share
// mutable state and must not draw from a shared RNG — anything random is
// derived *before* submission (see SweepRunner / RouteServer), so results
// are independent of scheduling order.
//
// Completion tokens group tasks so a caller can wait for its own batch
// instead of whole-pool idleness. wait(token) *helps*: while the token is
// pending, the waiting thread drains queued tasks of that token itself, so
// progress is guaranteed even when every worker is held (e.g. by an
// injected stall window). That makes nested submission safe — a task
// running on a worker may submit sub-tasks to the same pool and wait for
// them without deadlock, which is how sweep cells use inner parallelism on
// the shared pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace staleflow {

/// Fixed pool of worker threads draining one shared FIFO queue.
///
/// submit() is thread-safe. Every task belongs to a completion token; the
/// first exception of a batch is captured in its token and rethrown from
/// wait(token).
class ThreadPool {
 public:
  /// Completion state of one batch of tasks. Opaque: create with
  /// make_token(), pass to submit(), settle with wait().
  class Completion;
  using CompletionToken = std::shared_ptr<Completion>;

  /// Spawns `threads` workers; 0 picks std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// A fresh, empty completion token.
  CompletionToken make_token();

  /// Enqueues a task under `token`'s batch. Tasks are picked up FIFO by
  /// whichever thread frees up first; completion order is unspecified.
  /// Throws std::invalid_argument on a null token.
  void submit(std::function<void()> task, const CompletionToken& token);

  /// Blocks until every task submitted under `token` has finished, then
  /// rethrows the first exception any of them raised. While waiting, runs
  /// queued tasks of the same token on the calling thread, so a nested
  /// batch drains without consuming an extra worker and progress never
  /// depends on a worker being free. Throws std::invalid_argument on a
  /// null token.
  void wait(const CompletionToken& token);

 private:
  struct Entry {
    std::function<void()> task;
    CompletionToken token;
  };

  void worker_loop();
  void run_entry(Entry entry);

  std::vector<std::thread> workers_;
  std::deque<Entry> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  bool stopping_ = false;
};

}  // namespace staleflow
