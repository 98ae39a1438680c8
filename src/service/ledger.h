// Sharded flow accounting for the query pipeline.
//
// Workers never touch a shared flow vector on the hot path: every serving
// slot (one logical shard, or one sub-batch of a shard once the executor
// splits skewed batches) accumulates its own flow deltas, per-path served
// counts and migration counter in private, cache-line-separated storage,
// and the epoch thread folds all slots into the master flow at the phase
// boundary — the folded flow is what the next bulletin-board post() sees,
// closing the served-traffic -> next-board loop. Folding walks slots in
// index order, so the result is independent of how slots were scheduled
// onto threads.
//
// The served counts are all an epoch's route-latency distribution needs:
// the board is frozen between posts, so every query served on path P
// experienced the same board latency l_P.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace staleflow {

class FlowLedger {
 public:
  /// `path_count` entries per slot; each slot's delta and served-count
  /// blocks are padded to a cache-line multiple so concurrent slots never
  /// false-share.
  FlowLedger(std::size_t path_count, std::size_t slots);

  /// Grows the ledger to at least `slots` zeroed slots (no-op when already
  /// large enough). NOT thread-safe: call between epochs, never while
  /// serving tasks are writing. The epoch sub-batch plan sizes the ledger
  /// here, so the slot count follows the high-water mark instead of
  /// reallocating every epoch.
  void ensure_slots(std::size_t slots);

  /// Records that `delta` flow moved onto `path` in slot `s`: slot(s)'s
  /// delta, one write at a time (the serve loop writes through slot()).
  /// Safe to call concurrently for distinct slots.
  void add(std::size_t s, std::size_t path, double delta) noexcept {
    delta_[s * stride_ + path] += delta;
  }

  /// Slot s's private storage, for a serving loop to hold in locals:
  /// flow deltas and served-query counts by global path, and the
  /// migration counter. Distinct slots may be written concurrently.
  /// Valid until the next ensure_slots().
  struct Slot {
    double* delta;
    std::uint64_t* served;
    std::uint64_t* migrations;
  };
  Slot slot(std::size_t s) noexcept {
    return {delta_.data() + s * stride_, served_.data() + s * stride_,
            &migrations_[s].count};
  }

  struct Totals {
    std::size_t queries = 0;
    std::size_t migrations = 0;
  };

  /// Folds the first `active_slots` slots' deltas into `flow` and their
  /// served counts into served() (slot-index order — the canonical fold
  /// the determinism contract fixes), returns the summed counters, and
  /// resets those slots for the next epoch. Requires active_slots <= the
  /// slot count.
  Totals fold_into(std::span<double> flow, std::size_t active_slots) noexcept;

  /// Queries served on each global path, summed over the slots of the
  /// last fold_into (zero before the first). Overwritten by the next fold.
  std::span<const std::uint64_t> served() const noexcept {
    return served_total_;
  }

 private:
  std::size_t path_count_;
  std::size_t stride_;  // path_count_ rounded up to a cache-line multiple
  std::vector<double> delta_;          // slots * stride_
  std::vector<std::uint64_t> served_;  // slots * stride_
  std::vector<std::uint64_t> served_total_;  // path_count_, last fold

  struct alignas(64) Migrations {
    std::uint64_t count = 0;
  };
  std::vector<Migrations> migrations_;  // by slot
};

}  // namespace staleflow
