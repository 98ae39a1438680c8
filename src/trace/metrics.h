// Named monotonic counters for the always-on metrics plane.
//
// Registration (name → Counter&) takes a mutex once per call site; the
// increments themselves are single relaxed atomic adds, cheap enough for
// per-task hot paths. Call sites cache the Counter& in a function-local
// static so steady state is one atomic add, zero lookups:
//
//   static auto& tasks = MetricsRegistry::global().counter("pool.tasks");
//   tasks.inc();
//
// (That one is Executor's: graph nodes run by its workers or by a thread
// helping in run(); inline mode runs none.)
//
// Counters are process-global and always on; the trace recorder samples
// the registry periodically into kCounterDefs/kCounterBatch records, so
// the offline analyzer sees named time series without the serving code
// knowing whether a trace is being written. Counter values are wall-run
// telemetry and never feed the deterministic digest.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace staleflow::trace {

/// One monotonic counter. Lives in a std::deque inside the registry so
/// its address is stable for the life of the process — call sites keep
/// raw references.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  std::uint64_t load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A sampled (id, name, value) triple; ids are dense registration order.
struct CounterSample {
  std::uint32_t id = 0;
  std::string name;
  std::uint64_t value = 0;
};

class MetricsRegistry {
 public:
  /// Returns the counter registered under `name`, creating it on first
  /// use. The reference stays valid forever.
  Counter& counter(std::string_view name);

  /// Point-in-time values of every registered counter, in id order.
  std::vector<CounterSample> snapshot() const;

  /// The process-wide registry all built-in hooks use.
  static MetricsRegistry& global();

 private:
  struct Entry {
    std::string name;
    Counter counter;
  };

  mutable std::mutex mu_;
  std::deque<Entry> entries_;
};

}  // namespace staleflow::trace
