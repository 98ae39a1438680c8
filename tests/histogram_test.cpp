// Property tests for LogHistogram: record/merge commutativity, quantile
// monotonicity, bucket-boundary round-trips, agreement with exact sorted
// quantiles within one bucket width, and the value contract.
// Runs under the `histogram` ctest label so the ASan+UBSan job can target
// it directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/log_histogram.h"
#include "util/rng.h"
#include "util/statistics.h"

namespace staleflow {
namespace {

/// Log-uniform samples spanning most of the default tracked range, plus a
/// few adversarial values (zero, the range edges, out-of-range tails).
std::vector<double> sample_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n + 6);
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(std::pow(10.0, rng.uniform(-6.0, 6.0)));
  }
  values.insert(values.end(),
                {0.0, 1e-12, 1e-9, 1e9, 5e12, 123.456});
  return values;
}

TEST(LogHistogram, RejectsBadValues) {
  LogHistogram hist;
  EXPECT_THROW(hist.record(-1.0), std::invalid_argument);
  EXPECT_THROW(hist.record(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(hist.record(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_TRUE(hist.empty());
}

TEST(LogHistogram, EmptyHistogramHasNoStatistics) {
  const LogHistogram hist;
  EXPECT_TRUE(hist.empty());
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
  EXPECT_THROW(hist.min(), std::logic_error);
  EXPECT_THROW(hist.max(), std::logic_error);
  EXPECT_THROW(hist.quantile(0.5), std::invalid_argument);
}

TEST(LogHistogram, NegativeZeroIsAnUnderflowSampleNotAnOverflow) {
  // -0.0 passes the (value >= 0) guard but its sign-bit pattern would
  // order above every positive double; it must land in the underflow
  // bucket like +0.0, keeping quantile(0) == min().
  LogHistogram hist;
  hist.record(-0.0);
  hist.record(5.0);
  EXPECT_EQ(hist.bucket_index(-0.0), hist.bucket_index(0.0));
  EXPECT_EQ(hist.bucket_value(0), 1u);
  EXPECT_EQ(hist.bucket_value(hist.bucket_count() - 1), 0u);
  EXPECT_EQ(hist.quantile(0.0), hist.min());
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_LT(hist.quantile(0.25), 1.0);  // the zero, not the 5.0
}

TEST(LogHistogram, GeometryIsDefinedBeforeFirstRecord) {
  // The bucket array allocates lazily; the geometry accessors must not
  // depend on it.
  const LogHistogram hist;
  EXPECT_GT(hist.bucket_count(), 2u);
  EXPECT_EQ(hist.bucket_value(1), 0u);
  EXPECT_GT(hist.bucket_upper(1), hist.bucket_lower(1));
  EXPECT_EQ(hist.bucket_index(1.0),
            hist.bucket_index(hist.bucket_lower(hist.bucket_index(1.0))));
}

TEST(LogHistogram, CountsMinMaxSumAreExact) {
  LogHistogram hist;
  hist.record(3.0);
  hist.record(1.0, 2);
  hist.record(0.0);  // underflow bucket, still drives min
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 3.0);
  EXPECT_DOUBLE_EQ(hist.sum(), 5.0);
  EXPECT_THROW(hist.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(hist.quantile(1.1), std::invalid_argument);
}

/// Every bucket boundary maps back to its own bucket, and the value just
/// below it (previous representable double) maps to the previous bucket:
/// the bucket geometry is exact, with no log()/exp() rounding slop.
TEST(LogHistogram, BucketBoundariesRoundTrip) {
  const LogHistogram hist;
  ASSERT_GT(hist.bucket_count(), 3u);
  for (std::size_t b = 0; b < hist.bucket_count(); ++b) {
    const double lower = hist.bucket_lower(b);
    if (std::isinf(lower)) continue;  // overflow bound may be +inf
    EXPECT_EQ(hist.bucket_index(lower), b) << "bucket " << b;
    EXPECT_LT(lower, hist.bucket_upper(b));
    if (b > 1) {
      const double below = std::nextafter(lower, 0.0);
      EXPECT_EQ(hist.bucket_index(below), b - 1) << "bucket " << b;
    }
  }
  // Buckets tile the range: upper(b) == lower(b+1).
  for (std::size_t b = 0; b + 1 < hist.bucket_count(); ++b) {
    EXPECT_EQ(hist.bucket_upper(b), hist.bucket_lower(b + 1));
  }
  EXPECT_THROW(hist.bucket_lower(hist.bucket_count()), std::out_of_range);
}

/// Relative bucket width within the tracked range is bounded by
/// 2^-kSubBucketBits: the resolution guarantee quantiles inherit.
TEST(LogHistogram, RelativeBucketWidthIsBounded) {
  const LogHistogram hist;
  const double max_relative =
      1.0 / static_cast<double>(1u << LogHistogram::kSubBucketBits);
  for (std::size_t b = 1; b + 1 < hist.bucket_count(); ++b) {
    const double lo = hist.bucket_lower(b);
    const double width = hist.bucket_upper(b) - lo;
    EXPECT_LE(width / lo, max_relative * (1.0 + 1e-12)) << "bucket " << b;
  }
}

/// Recording a sample set in any order, or split across histograms merged
/// in either direction, yields the identical histogram.
TEST(LogHistogram, RecordAndMergeAreCommutative) {
  const std::vector<double> values = sample_values(2000, 99);

  LogHistogram forward, backward;
  for (const double v : values) forward.record(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    backward.record(*it);
  }
  // Counts, extremes and bucket contents are order-independent (the sum is
  // compared via its value; addition order never moves a count).
  EXPECT_EQ(forward.count(), backward.count());
  EXPECT_DOUBLE_EQ(forward.min(), backward.min());
  EXPECT_DOUBLE_EQ(forward.max(), backward.max());
  for (std::size_t b = 0; b < forward.bucket_count(); ++b) {
    EXPECT_EQ(forward.bucket_value(b), backward.bucket_value(b));
  }

  // a.merge(b) == b.merge(a), for every split point of the sample set.
  for (const std::size_t split : {std::size_t{0}, values.size() / 3,
                                  values.size() / 2, values.size()}) {
    LogHistogram a, b;
    for (std::size_t i = 0; i < split; ++i) a.record(values[i]);
    for (std::size_t i = split; i < values.size(); ++i) b.record(values[i]);
    LogHistogram ab = a;
    ab.merge(b);
    LogHistogram ba = b;
    ba.merge(a);
    EXPECT_TRUE(ab == ba) << "split " << split;
    EXPECT_EQ(ab.count(), values.size());
    EXPECT_DOUBLE_EQ(ab.quantile(0.5), ba.quantile(0.5));
    EXPECT_DOUBLE_EQ(ab.quantile(0.99), ba.quantile(0.99));
  }
}

/// record(v, k) is k calls of record(v): the serving summary records each
/// path's board latency once with the path's served count.
TEST(LogHistogram, RecordWithCountMatchesRepeatedRecords) {
  Rng rng(5);
  const std::vector<double> values = sample_values(200, 13);
  LogHistogram weighted, repeated;
  for (const double v : values) {
    const std::uint64_t k = 1 + rng.below(1000);
    weighted.record(v, k);
    for (std::uint64_t i = 0; i < k; ++i) repeated.record(v);
  }
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_EQ(weighted.min(), repeated.min());
  EXPECT_EQ(weighted.max(), repeated.max());
  for (std::size_t b = 0; b < weighted.bucket_count(); ++b) {
    EXPECT_EQ(weighted.bucket_value(b), repeated.bucket_value(b));
  }
  for (const double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(weighted.quantile(q), repeated.quantile(q)) << "q = " << q;
  }
  // Only the sum's rounding differs: one product per value, not k adds.
  EXPECT_NEAR(weighted.sum(), repeated.sum(), 1e-12 * repeated.sum());
}

TEST(LogHistogram, QuantilesAreMonotoneInQ) {
  LogHistogram hist;
  for (const double v : sample_values(5000, 7)) hist.record(v);
  double previous = hist.quantile(0.0);
  for (double q = 0.05; q <= 1.0 + 1e-12; q += 0.05) {
    const double current = hist.quantile(std::min(q, 1.0));
    EXPECT_GE(current, previous) << "q = " << q;
    previous = current;
  }
}

TEST(LogHistogram, ExtremeQuantilesAreExactMinAndMax) {
  LogHistogram hist;
  const std::vector<double> values = sample_values(1000, 3);
  for (const double v : values) hist.record(v);
  const double lo = *std::min_element(values.begin(), values.end());
  const double hi = *std::max_element(values.begin(), values.end());
  EXPECT_EQ(hist.quantile(0.0), lo);
  EXPECT_EQ(hist.quantile(1.0), hi);

  // Also with every sample strictly inside the tracked range (no
  // under/overflow sentinels whose representatives happen to be the
  // extremes): the endpoints must still be the exact samples, not the
  // midpoints of their buckets.
  LogHistogram interior;
  interior.record(1.0);
  interior.record(1.03);  // same bucket as 1.0 at 32 sub-buckets/octave
  interior.record(7.25);
  EXPECT_EQ(interior.quantile(0.0), 1.0);
  EXPECT_EQ(interior.quantile(1.0), 7.25);

  LogHistogram single;
  single.record(42.5);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(single.quantile(q), 42.5) << "q = " << q;
  }
}

/// The histogram quantile lands in the same bucket as the exact order
/// statistic it targets — i.e. it agrees with the sorted-sample quantile
/// to within one bucket width.
TEST(LogHistogram, AgreesWithSortedQuantilesWithinOneBucket) {
  LogHistogram hist;
  std::vector<double> values = sample_values(4000, 21);
  for (const double v : values) hist.record(v);
  std::sort(values.begin(), values.end());

  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                         0.999, 1.0}) {
    // The order statistic the histogram targets: rank ceil(q * n).
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(values.size()))));
    const double exact = values[rank - 1];
    const double approx = hist.quantile(q);
    const std::size_t bucket = hist.bucket_index(exact);
    const double width =
        std::isinf(hist.bucket_upper(bucket))
            ? 0.0  // overflow bucket: representative is the exact max
            : hist.bucket_upper(bucket) - hist.bucket_lower(bucket);
    EXPECT_NEAR(approx, exact, width) << "q = " << q;

    // And against the interpolating sorted_quantile, which may straddle
    // two adjacent order statistics: two bucket widths bound it.
    const double interpolated = sorted_quantile(values, q);
    const std::size_t ibucket = hist.bucket_index(interpolated);
    const double iwidth =
        std::isinf(hist.bucket_upper(ibucket))
            ? 0.0
            : hist.bucket_upper(ibucket) - hist.bucket_lower(ibucket);
    EXPECT_NEAR(approx, interpolated, width + iwidth) << "q = " << q;
  }
}

/// Out-of-range recordings land in the underflow/overflow buckets and
/// keep quantiles clamped to real observations.
TEST(LogHistogram, UnderflowAndOverflowAreClampedToObservations) {
  LogHistogram hist;
  hist.record(1e-12, 10);  // below kMinValue
  hist.record(1e12, 10);   // above kMaxValue
  EXPECT_EQ(hist.bucket_value(0), 10u);
  EXPECT_EQ(hist.bucket_value(hist.bucket_count() - 1), 10u);
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 1e-12);
  EXPECT_DOUBLE_EQ(hist.quantile(0.25), 1e-12);
  EXPECT_DOUBLE_EQ(hist.quantile(0.75), 1e12);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 1e12);
}

// ------------------------------------------- sorted_quantile edge cases
//
// Pinned here (rather than util_test) because the histogram comparison
// tests above are what surfaced them: the histogram's exact-endpoint
// contract only matches sorted_quantile if its own edges are exact.

TEST(SortedQuantile, EmptyInputThrows) {
  EXPECT_THROW(sorted_quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(sorted_quantile({}, 0.0), std::invalid_argument);
}

TEST(SortedQuantile, SingleSampleReturnsItForEveryQ) {
  const std::vector<double> one{3.25};
  for (const double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(sorted_quantile(one, q), 3.25) << "q = " << q;
  }
}

TEST(SortedQuantile, EndpointsAreExactSamples) {
  const std::vector<double> data{1.0, 2.5, 2.5, 7.0,
                                 std::numeric_limits<double>::infinity()};
  // q == 0 / q == 1 must return the extreme samples bit-for-bit — even
  // when interpolating against an infinite neighbour would produce NaN.
  EXPECT_EQ(sorted_quantile(data, 0.0), 1.0);
  EXPECT_TRUE(std::isinf(sorted_quantile(data, 1.0)));
  const std::vector<double> finite{1.0, 3.0};
  EXPECT_EQ(sorted_quantile(finite, 0.0), 1.0);
  EXPECT_EQ(sorted_quantile(finite, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(sorted_quantile(finite, 0.5), 2.0);
}

TEST(SortedQuantile, RejectsOutOfRangeQ) {
  const std::vector<double> data{1.0, 2.0};
  EXPECT_THROW(sorted_quantile(data, -0.01), std::invalid_argument);
  EXPECT_THROW(sorted_quantile(data, 1.01), std::invalid_argument);
}

}  // namespace
}  // namespace staleflow
