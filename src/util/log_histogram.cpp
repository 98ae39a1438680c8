#include "util/log_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace staleflow {
namespace {

/// Raw bucket index of a non-negative finite double: its bit pattern
/// shifted so that each power-of-two octave contributes 2^kSubBucketBits
/// linear sub-buckets. Positive IEEE-754 doubles order exactly like their
/// bit patterns, so this is a monotone, exact, libm-free bucketing.
std::uint64_t raw_index(double value) noexcept {
  return std::bit_cast<std::uint64_t>(value) >>
         (52 - LogHistogram::kSubBucketBits);
}

double value_of_raw(std::uint64_t raw) noexcept {
  return std::bit_cast<double>(raw << (52 - LogHistogram::kSubBucketBits));
}

}  // namespace

void LogHistogram::ensure_counts() {
  if (counts_.empty()) counts_.assign(bucket_count(), 0);
}

void LogHistogram::record(double value, std::uint64_t count) {
  if (!(value >= 0.0) || !std::isfinite(value)) {
    throw std::invalid_argument(
        "LogHistogram::record: value must be finite and >= 0");
  }
  if (count == 0) return;
  ensure_counts();
  counts_[bucket_index(value)] += count;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += count;
  sum_ += value * static_cast<double>(count);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  ensure_counts();  // other.count_ > 0 implies other.counts_ is allocated
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void LogHistogram::reset() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double LogHistogram::min() const {
  if (count_ == 0) throw std::logic_error("LogHistogram::min: empty");
  return min_;
}

double LogHistogram::max() const {
  if (count_ == 0) throw std::logic_error("LogHistogram::max: empty");
  return max_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) {
    throw std::invalid_argument("LogHistogram::quantile: empty histogram");
  }
  if (!(q >= 0.0) || !(q <= 1.0)) {
    throw std::invalid_argument("LogHistogram::quantile: q not in [0,1]");
  }
  // Endpoints are the exact recorded extremes, not a bucket midpoint —
  // the same endpoint contract as sorted_quantile.
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  // Rank of the requested order statistic, 1-based.
  const double scaled = q * static_cast<double>(count_);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(scaled)));

  std::uint64_t seen = 0;
  std::size_t bucket = counts_.size() - 1;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      bucket = b;
      break;
    }
  }

  double representative;
  if (bucket == 0) {
    representative = min_;  // underflow: below the tracked range
  } else if (bucket + 1 == counts_.size()) {
    representative = max_;  // overflow: above the tracked range
  } else {
    const double lo = bucket_lower(bucket);
    const double hi = bucket_upper(bucket);
    representative = lo + (hi - lo) / 2.0;
  }
  return std::clamp(representative, min_, max_);
}

std::size_t LogHistogram::bucket_index(double value) {
  // Normalise -0.0: its sign-bit pattern would otherwise order above
  // every positive value and land the smallest possible sample in the
  // overflow bucket.
  if (value == 0.0) return 0;  // zero is always below kMinValue (> 0)
  const std::uint64_t raw = raw_index(value);
  if (raw < kLoRaw) return 0;
  if (raw > kHiRaw) return bucket_count() - 1;
  return static_cast<std::size_t>(raw - kLoRaw) + 1;
}

double LogHistogram::bucket_lower(std::size_t b) const {
  if (b >= bucket_count()) {
    throw std::out_of_range("LogHistogram::bucket_lower: bad bucket");
  }
  if (b == 0) return 0.0;
  return value_of_raw(kLoRaw + (b - 1));
}

double LogHistogram::bucket_upper(std::size_t b) const {
  if (b >= bucket_count()) {
    throw std::out_of_range("LogHistogram::bucket_upper: bad bucket");
  }
  if (b + 1 == bucket_count()) {
    return std::numeric_limits<double>::infinity();
  }
  return bucket_lower(b + 1);
}

std::uint64_t LogHistogram::bucket_value(std::size_t b) const {
  if (b >= bucket_count()) {
    throw std::out_of_range("LogHistogram::bucket_value: bad bucket");
  }
  return counts_.empty() ? 0 : counts_[b];
}

std::vector<LogHistogram::Bucket> LogHistogram::nonzero_buckets() const {
  std::vector<Bucket> buckets;
  if (count_ == 0) return buckets;
  // Bucketing is monotone and every recorded value lies in [min_, max_].
  const std::size_t last = bucket_index(max_);
  for (std::size_t b = bucket_index(min_); b <= last; ++b) {
    if (counts_[b] != 0) buckets.emplace_back(b, counts_[b]);
  }
  return buckets;
}

void LogHistogram::check_state(std::span<const Bucket> buckets, double min,
                               double max) {
  if (buckets.empty()) return;
  std::uint64_t next = 0;  // the smallest index the next entry may take
  for (const auto& [bucket, count] : buckets) {
    if (bucket < next || bucket >= bucket_count()) {
      throw std::invalid_argument(
          "LogHistogram: bucket index out of range or order");
    }
    if (count == 0) {
      throw std::invalid_argument("LogHistogram: zero bucket count");
    }
    next = bucket + 1;
  }
  if (!(min >= 0.0 && min <= max && std::isfinite(max))) {
    throw std::invalid_argument(
        "LogHistogram: min and max not 0 <= min <= max, finite");
  }
  if (bucket_index(min) != buckets.front().first ||
      bucket_index(max) != buckets.back().first) {
    throw std::invalid_argument(
        "LogHistogram: min or max outside the first or last bucket");
  }
}

void LogHistogram::merge_state(std::span<const Bucket> buckets, double min,
                               double max, double sum) {
  check_state(buckets, min, max);
  if (buckets.empty()) return;
  ensure_counts();
  std::uint64_t added = 0;
  for (const auto& [bucket, count] : buckets) {
    counts_[bucket] += count;
    added += count;
  }
  if (count_ == 0) {
    min_ = min;
    max_ = max;
  } else {
    min_ = std::min(min_, min);
    max_ = std::max(max_, max);
  }
  count_ += added;
  sum_ += sum;
}

bool operator==(const LogHistogram& a, const LogHistogram& b) {
  if (a.count_ != b.count_ || a.sum_ != b.sum_) return false;
  // Two empty histograms are equal whether or not their bucket arrays
  // have been (lazily) allocated yet.
  if (a.count_ == 0) return true;
  return a.min_ == b.min_ && a.max_ == b.max_ && a.counts_ == b.counts_;
}

}  // namespace staleflow
