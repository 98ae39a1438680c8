// Epoch-frozen bulletin boards: the read side of the route service.
//
// The paper's bulletin board is rebuilt once per period T and frozen in
// between — exactly the shape of a production routing snapshot. A
// BoardSnapshot wraps one frozen BulletinBoard together with everything a
// query needs precomputed (per-commodity sampling CDFs with guide tables,
// an O(1) expected-time candidate lookup per query). Each EpochEngine
// owns the board it serves and the one it builds for the next epoch, and
// swaps them at the phase boundary on its host thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/bulletin_board.h"
#include "core/policy.h"
#include "net/instance.h"

namespace staleflow {

/// One immutable, epoch-stamped board. Safe to read from any number of
/// threads once fully constructed (i.e. after every CDF is built).
class BoardSnapshot {
 public:
  /// Tag selecting the two-phase build the full constructor runs. The
  /// tag, that constructor and build_cdf() are public only because
  /// perfbench/ times the build through them; the next benchmark change
  /// makes them private.
  struct DeferCdf {};

  /// Posts `path_flow` at time `now` and precomputes the sampling CDF of
  /// `policy` for every commodity.
  BoardSnapshot(const Instance& instance, const Policy& policy,
                std::uint64_t epoch, double now,
                std::span<const double> path_flow);

  /// Two-phase build: posts the board and sizes the CDF table but leaves
  /// every commodity's CDF empty; build_cdf() must then fill each one
  /// before the snapshot is read. The full constructor above is this
  /// plus build_cdf() for every commodity.
  BoardSnapshot(DeferCdf, const Instance& instance, const Policy& policy,
                std::uint64_t epoch, double now,
                std::span<const double> path_flow);

  /// Fills commodity `c`'s sampling CDF from the posted board.
  void build_cdf(CommodityId c);

  std::uint64_t epoch() const noexcept { return epoch_; }
  const BulletinBoard& board() const noexcept { return board_; }

  /// Cumulative sampling distribution over commodity `c`'s local path
  /// list (see sampling_cdf() in core/policy.h).
  std::span<const double> cdf(CommodityId c) const {
    return cdf_[c.index()].values();
  }

  /// The same distribution with its guide table: what a query draws its
  /// candidate from.
  const GuidedCdf& guided_cdf(CommodityId c) const { return cdf_[c.index()]; }

 private:
  const Instance* instance_;
  const Policy* policy_;
  std::uint64_t epoch_;
  BulletinBoard board_;
  std::vector<GuidedCdf> cdf_;  // by commodity
};

/// Ignored; kept only because perfbench/ uses it; the next benchmark
/// change deletes it.
struct SnapshotStore {};

}  // namespace staleflow
