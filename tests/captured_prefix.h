// Test helper: the run prefix an uninterrupted run holds after the epochs
// its captured cuts closed, in the shape EpochEngine::restore reads — the
// resume a WAL recovery of the same run hands over.
#pragma once

#include <span>
#include <vector>

#include "service/checkpoint.h"

namespace staleflow {

/// The summaries of `cuts`, the last cut, and their route histograms
/// merged in order.
struct CapturedPrefix {
  std::vector<EpochSummary> epochs;
  BoundaryState at;

  explicit CapturedPrefix(std::span<const EngineCheckpoint> cuts) {
    for (const EngineCheckpoint& cut : cuts) {
      epochs.push_back(cut.summary);
      at.route_latency.merge(cut.route_hist);
    }
    if (!cuts.empty()) at.cut = cuts.back();
  }

  EngineResume resume() const { return {epochs, &at}; }
};

}  // namespace staleflow
