// The one wall-clock timer shared by the serving layer (route server,
// tenant registry) and the benches (bench/bench_common.h): a Stopwatch for
// the begin/elapsed idiom. It times against the same steady_clock the
// trace recorder stamps spans with, so bench numbers and offline trace
// quantiles are directly comparable.
#pragma once

#include <chrono>

namespace staleflow {

/// The one begin/elapsed timing idiom: starts on construction, reads
/// without stopping, restarts for loop reuse. Wall-clock telemetry only —
/// never feeds the deterministic digest.
class Stopwatch {
 public:
  Stopwatch() : begin_(Clock::now()) {}

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - begin_).count();
  }
  void restart() { begin_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point begin_;
};

}  // namespace staleflow
