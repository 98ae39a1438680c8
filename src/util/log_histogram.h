// Fixed-bucket logarithmic latency histograms (HdrHistogram-style, no
// dependencies).
//
// A LogHistogram records non-negative doubles into buckets whose
// boundaries are spaced logarithmically: each power-of-two octave is cut
// into 2^kSubBucketBits linear sub-buckets, so the relative bucket width
// is at most 2^-kSubBucketBits everywhere in the tracked range. Bucket
// indices are computed by integer arithmetic on the IEEE-754 bit pattern
// (positive doubles order like their bits), never through log()/exp(), so
// bucketing is exact, platform-stable and byte-reproducible — the
// property the service digest and the sweep CSV contract rely on.
//
// Every histogram has the same geometry, so any two merge by adding
// counts; merging is commutative and associative, which is what lets
// per-shard recordings combine into per-epoch distributions, epochs into
// runs, and sweep cells into capacity-table rows without ever storing raw
// samples. Quantiles are extracted exactly from the counts: the returned
// value is the midpoint of the bucket holding the requested rank (clamped
// to the recorded min/max, so quantile(0) and quantile(1) are the exact
// extremes), hence within one bucket width of the true sorted-sample
// quantile.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace staleflow {

class LogHistogram {
 public:
  /// The one geometry: values in [kMinValue, kMaxValue] with
  /// 2^kSubBucketBits linear sub-buckets per octave (32: <= 3.2% relative
  /// bucket width). Values below/above the range land in dedicated
  /// underflow / overflow buckets and are still counted (and still drive
  /// the exact min/max).
  static constexpr double kMinValue = 1e-9;
  static constexpr double kMaxValue = 1e9;
  static constexpr unsigned kSubBucketBits = 5;

  /// Records one (or `count`) occurrences of `value`. Negative, NaN and
  /// infinite values are rejected with std::invalid_argument (a latency
  /// can be zero but never negative or undefined).
  void record(double value, std::uint64_t count = 1);

  /// Adds `other`'s counts into this histogram.
  void merge(const LogHistogram& other);

  /// Drops every recorded value (no reallocation — for per-epoch reuse in
  /// serving loops).
  void reset() noexcept;

  /// Total number of recorded values.
  std::uint64_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Exact smallest / largest recorded value. Requires count() > 0.
  double min() const;
  double max() const;

  /// Sum of recorded values, accumulated in recording order (0 if empty).
  double sum() const noexcept { return sum_; }

  /// The q-quantile, q in [0, 1]. quantile(0) == min() and
  /// quantile(1) == max() exactly (the recorded extremes, as in
  /// sorted_quantile); an interior q returns the midpoint of the bucket
  /// containing rank ceil(q * count), clamped to [min(), max()], hence
  /// within one bucket width of the sorted-sample quantile. Requires
  /// count() > 0 and q in [0, 1]; throws std::invalid_argument otherwise.
  double quantile(double q) const;

  // ---- bucket geometry (exposed for tests and exports) ----

  /// Number of buckets, including the underflow (first) and overflow
  /// (last) buckets. Pure geometry — defined whether or not anything has
  /// been recorded (the bucket array itself is allocated lazily on first
  /// record/merge, so unused histogram members cost nothing).
  static constexpr std::size_t bucket_count() noexcept {
    return static_cast<std::size_t>(kHiRaw - kLoRaw) + 3;
  }

  /// Bucket that `value` (>= 0, finite) falls into.
  static std::size_t bucket_index(double value);

  /// Inclusive lower bound of bucket b: the smallest value mapping to it
  /// (0 for the underflow bucket). Requires b < bucket_count().
  double bucket_lower(std::size_t b) const;

  /// Exclusive upper bound of bucket b (+infinity for the overflow
  /// bucket). Requires b < bucket_count().
  double bucket_upper(std::size_t b) const;

  /// Count recorded in bucket b. Requires b < bucket_count().
  std::uint64_t bucket_value(std::size_t b) const;

  // ---- exported state (the recovery WAL path) ----

  /// One nonzero bucket: (bucket index, count).
  using Bucket = std::pair<std::uint64_t, std::uint64_t>;

  /// The nonzero buckets in ascending index order: with min(), max() and
  /// sum(), the histogram's whole state. Found in one pass over the
  /// buckets from min()'s to max()'s (no other bucket can hold a count);
  /// an epoch's route histogram has at most one nonzero bucket per served
  /// path, so this is what the WAL stores.
  std::vector<Bucket> nonzero_buckets() const;

  /// Throws std::invalid_argument unless (`buckets`, `min`, `max`) can be
  /// a nonempty histogram's exported state: bucket indices in range and
  /// strictly ascending, no zero count, 0 <= min <= max finite, and min
  /// and max falling in the first and last listed bucket. An empty
  /// `buckets` always passes (min and max are then not read).
  static void check_state(std::span<const Bucket> buckets, double min,
                          double max);

  /// Adds exported state — a histogram's nonzero_buckets() and its exact
  /// min(), max() and sum() — exactly as merge() adds that histogram:
  /// counts add, the extremes widen, the sum adds once. Merging exported
  /// states in order therefore rebuilds the merged histogram bit for bit,
  /// and merging one into an empty histogram restores it operator==-equal.
  /// `min`/`max`/`sum` are ignored when `buckets` is empty (an empty
  /// histogram has no extremes). Throws std::invalid_argument, leaving
  /// this histogram unchanged, on state check_state() refuses.
  void merge_state(std::span<const Bucket> buckets, double min, double max,
                   double sum);

  /// True when both histograms have the same counts, min, max and sum —
  /// i.e. they are observationally identical.
  friend bool operator==(const LogHistogram& a, const LogHistogram& b);

 private:
  // Raw bit-indices of the first and last regular buckets (see raw_index
  // in the .cpp).
  static constexpr std::uint64_t kLoRaw =
      std::bit_cast<std::uint64_t>(kMinValue) >> (52 - kSubBucketBits);
  static constexpr std::uint64_t kHiRaw =
      std::bit_cast<std::uint64_t>(kMaxValue) >> (52 - kSubBucketBits);

  void ensure_counts();

  std::vector<std::uint64_t> counts_;  // [underflow, regular..., overflow]
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace staleflow
