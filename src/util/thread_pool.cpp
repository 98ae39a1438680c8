#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "trace/metrics.h"

namespace staleflow {
namespace {

void require_token(const ThreadPool::CompletionToken& token,
                   const char* where) {
  if (token == nullptr) {
    throw std::invalid_argument(std::string("ThreadPool::") + where +
                                ": null completion token");
  }
}

}  // namespace

/// Shared state of one batch: how many of its tasks are still queued or
/// running, and the first exception any of them raised. Guarded by the
/// pool mutex (tokens are cheap; a dedicated mutex per token would buy
/// nothing — every transition already happens under the pool lock).
class ThreadPool::Completion {
 public:
  std::size_t pending = 0;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool::CompletionToken ThreadPool::make_token() {
  return std::make_shared<Completion>();
}

void ThreadPool::submit(std::function<void()> task,
                        const CompletionToken& token) {
  require_token(token, "submit");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++token->pending;
    queue_.push_back(Entry{std::move(task), token});
  }
  work_available_.notify_all();
}

void ThreadPool::wait(const CompletionToken& token) {
  require_token(token, "wait");
  std::unique_lock<std::mutex> lock(mutex_);
  const auto match = [&](const Entry& e) { return e.token == token; };
  while (token->pending != 0) {
    // Help with our own batch: pop the oldest queued task of this token
    // and run it here. Tasks of other tokens are left to the workers (and
    // to their own waiters) — running an arbitrary task while it may
    // itself block on us is how nested pools deadlock.
    auto it = std::find_if(queue_.begin(), queue_.end(), match);
    if (it != queue_.end()) {
      Entry entry = std::move(*it);
      queue_.erase(it);
      lock.unlock();
      run_entry(std::move(entry));
      lock.lock();
      continue;
    }
    // Nothing of ours queued: the rest of the batch is running on other
    // threads. Sleep until a completion (or new work of ours) shows up.
    work_available_.wait(lock, [&] {
      return token->pending == 0 ||
             std::any_of(queue_.begin(), queue_.end(), match);
    });
  }
  if (token->error) {
    const std::exception_ptr error = std::exchange(token->error, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::run_entry(Entry entry) {
  static trace::Counter& tasks_counter =
      trace::MetricsRegistry::global().counter("pool.tasks");
  tasks_counter.inc();
  std::exception_ptr error;
  try {
    entry.task();
  } catch (...) {
    error = std::current_exception();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error && !entry.token->error) entry.token->error = error;
    --entry.token->pending;
  }
  // Completions wake both idle workers and helping waiters; the predicate
  // re-check keeps the broadcast cheap to tolerate.
  work_available_.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Entry entry;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      entry = std::move(queue_.front());
      queue_.pop_front();
    }
    run_entry(std::move(entry));
  }
}

}  // namespace staleflow
