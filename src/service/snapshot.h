// Epoch-frozen bulletin boards: the read side of the route service.
//
// The paper's bulletin board is rebuilt once per period T and frozen in
// between — exactly the shape of a production routing snapshot. A
// BoardSnapshot wraps one frozen BulletinBoard together with everything a
// query needs precomputed: one lane per commodity, holding its sampling
// CDF's guide-table lookup (an O(1) expected-time candidate draw) and its
// path latencies in local path order, so a query compares its own path
// with the sampled one without a detour through global path ids. Each
// EpochEngine owns the board it serves and the one it builds for the next
// epoch, and swaps them at the phase boundary on its host thread.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
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

  /// Two-phase build: posts the board, lays out every lane's local-order
  /// latencies and sizes the CDF table but leaves every commodity's CDF
  /// empty; build_cdf() must then fill each one before the snapshot is
  /// read. The full constructor above is this plus build_cdf() for every
  /// commodity.
  BoardSnapshot(DeferCdf, const Instance& instance, const Policy& policy,
                std::uint64_t epoch, double now,
                std::span<const double> path_flow);

  /// Lanes point into the snapshot's own storage.
  BoardSnapshot(const BoardSnapshot&) = delete;
  BoardSnapshot& operator=(const BoardSnapshot&) = delete;

  /// Fills commodity `c`'s sampling CDF from the posted board and points
  /// its lane at it.
  void build_cdf(CommodityId c);

  std::uint64_t epoch() const noexcept { return epoch_; }
  const BulletinBoard& board() const noexcept { return board_; }

  /// Cumulative sampling distribution over commodity `c`'s local path
  /// list (see sampling_cdf() in core/policy.h).
  std::span<const double> cdf(CommodityId c) const {
    return cdf_[c.index()].values();
  }

  /// Everything a query of one commodity reads from the board, by local
  /// path index: the candidate lookup, the posted latencies and the
  /// global path ids (which index only the ledger). Trivially copyable;
  /// valid while the snapshot lives.
  struct Lane {
    GuidedCdf::View cdf;
    const double* latency = nullptr;  // latency[k] = l of paths[k]
    const PathId* paths = nullptr;
  };

  /// One lane per commodity, by commodity index.
  std::span<const Lane> lanes() const noexcept { return lanes_; }

 private:
  const Instance* instance_;
  const Policy* policy_;
  std::uint64_t epoch_;
  BulletinBoard board_;
  std::vector<GuidedCdf> cdf_;        // by commodity
  std::vector<double> lane_latency_;  // every commodity's, in local order
  std::vector<Lane> lanes_;           // by commodity
};

static_assert(std::is_trivially_copyable_v<BoardSnapshot::Lane>);

/// Ignored; kept only because perfbench/ uses it; the next benchmark
/// change deletes it.
struct SnapshotStore {};

}  // namespace staleflow
