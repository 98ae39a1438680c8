// Tests for the util module: deterministic RNG, statistics, table/CSV.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/rng.h"
#include "util/statistics.h"
#include "util/table.h"

namespace staleflow {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

// Pins the stream every simulator and digest rests on: the first raw,
// uniform, below(1562) and bernoulli(0.3) draws of seed 42, drawn in that
// order from one generator, and the state they leave behind.
TEST(Rng, KnownAnswerSequence) {
  Rng rng(42);
  for (const std::uint64_t expected :
       {1546998764402558742ULL, 6990951692964543102ULL,
        12544586762248559009ULL, 17057574109182124193ULL}) {
    EXPECT_EQ(rng(), expected);
  }
  for (const double expected : {0.99180391428210279, 0.76973946043424246,
                                0.71925857787791558, 0.85000844391097274}) {
    EXPECT_EQ(rng.uniform(), expected);
  }
  for (const std::uint64_t expected : {1386, 1269, 1269, 191, 1354, 766}) {
    EXPECT_EQ(rng.below(1562), expected);
  }
  for (const bool expected : {false, false, false, false, false, false, true,
                              true, false, false}) {
    EXPECT_EQ(rng.bernoulli(0.3), expected);
  }
  const std::array<std::uint64_t, 4> state = {
      18229367531569391690ULL, 6937749954251268966ULL,
      2061484235470601048ULL, 18446421332541160596ULL};
  EXPECT_EQ(rng.state(), state);
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(3);
  std::array<int, 10> buckets{};
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (const int count : buckets) {
    EXPECT_NEAR(count, 10'000, 500);
  }
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

// BoundedDraw's multiply-high reduction equals r % n for every r: at the
// edges where its quotient estimate falls one short (just below a
// multiple of n, near 2^64) and on a million random words, for divisors
// at both ends of the 64-bit range and around 2^31, 2^32 and 2^63. Its
// draws take the raw words and return the values of the textbook
// threshold-rejection loop.
TEST(Rng, BoundedDrawEqualsModulo) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{1562}, std::uint64_t{1563}, std::uint64_t{1} << 31,
        (std::uint64_t{1} << 32) - 1, std::uint64_t{1} << 32,
        (std::uint64_t{1} << 32) + 1, std::uint64_t{1} << 63,
        (std::uint64_t{1} << 63) + 1, kMax}) {
    const BoundedDraw draw(n);
    const std::uint64_t threshold = (0 - n) % n;  // (2^64 - n) mod n
    const std::uint64_t top = kMax / n * n;  // the largest multiple of n
    for (const std::uint64_t r :
         {std::uint64_t{0}, std::uint64_t{1}, n - 1, n, 2 * n - 1,
          threshold - 1, threshold, top - n - 1, top - n, top - n + 1,
          top - 1, top, top + 1, kMax - 1, kMax}) {
      EXPECT_EQ(draw.reduce(r), r % n) << "n=" << n << ", r=" << r;
    }
    Rng words(n);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      const std::uint64_t r = words();
      mismatches += draw.reduce(r) != r % n ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << "n=" << n;

    Rng rng(7);
    Rng reference(7);
    for (int i = 0; i < 1000; ++i) {
      std::uint64_t expected = 0;
      for (;;) {
        const std::uint64_t r = reference();
        if (r >= threshold) {
          expected = r % n;
          break;
        }
      }
      ASSERT_EQ(draw(rng), expected) << "n=" << n << ", draw " << i;
    }
    EXPECT_EQ(rng.state(), reference.state()) << "n=" << n;
  }
  EXPECT_THROW(BoundedDraw(0), std::invalid_argument);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 30'000, 1'000);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = items;
  rng.shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, sorted);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng parent(37);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1() == child2()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// The recovery WAL's RNG-cursor contract: exporting the state mid-stream
// and restoring it elsewhere continues the stream exactly — every raw
// draw identical, from any cut point, no matter how far the original had
// advanced.
TEST(Rng, StateRoundTripContinuesStreamExactly) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL, 0xDEADBEEFULL}) {
    Rng original(seed);
    for (int warmup = 0; warmup < 257; ++warmup) original();

    Rng restored = Rng::from_state(original.state());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(original(), restored()) << "seed " << seed << " draw " << i;
    }
  }
}

// split() is part of the cursor contract too: the epoch engines derive
// every per-epoch and per-sub-batch stream via split(), so a restored
// master must split into the SAME children, and the children's children
// must match as well.
TEST(Rng, StateRoundTripPreservesSplitStreams) {
  Rng original(99);
  for (int warmup = 0; warmup < 17; ++warmup) original.split();

  Rng restored = Rng::from_state(original.state());
  for (int s = 0; s < 32; ++s) {
    Rng child_a = original.split();
    Rng child_b = restored.split();
    Rng grandchild_a = child_a.split();
    Rng grandchild_b = child_b.split();
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(child_a(), child_b()) << "split " << s << " draw " << i;
      ASSERT_EQ(grandchild_a(), grandchild_b());
    }
  }
}

TEST(Rng, FromStateRejectsAllZeroState) {
  EXPECT_THROW(Rng::from_state({0, 0, 0, 0}), std::invalid_argument);
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, ThrowsWhenEmpty) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_THROW(stats.mean(), std::logic_error);
  EXPECT_THROW(stats.min(), std::logic_error);
  EXPECT_THROW(stats.max(), std::logic_error);
  stats.add(1.0);
  EXPECT_THROW(stats.variance(), std::logic_error);
}

TEST(FitLine, RecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLine, RejectsDegenerateInput) {
  const std::vector<double> xs{1.0, 1.0}, ys{1.0, 2.0};
  EXPECT_THROW(fit_line(xs, ys), std::invalid_argument);
  const std::vector<double> one{1.0};
  EXPECT_THROW(fit_line(one, one), std::invalid_argument);
}

TEST(FitPower, RecoversExponent) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 16; ++i) {
    xs.push_back(i);
    ys.push_back(5.0 * std::pow(i, 1.7));
  }
  const PowerFit fit = fit_power(xs, ys);
  EXPECT_NEAR(fit.coefficient, 5.0, 1e-9);
  EXPECT_NEAR(fit.exponent, 1.7, 1e-9);
}

TEST(FitPower, RejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0}, ys{1.0, 2.0};
  EXPECT_THROW(fit_power(xs, ys), std::invalid_argument);
}

TEST(Table, AlignsColumns) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "2.5"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("------"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, RejectsBadShapes) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), std::invalid_argument);
}

TEST(TableFormatters, Format) {
  EXPECT_EQ(fmt(1.23456789, 3), "1.235");
  EXPECT_EQ(fmt_int(-42), "-42");
  EXPECT_EQ(fmt_bool(true), "yes");
  EXPECT_EQ(fmt_bool(false), "no");
  EXPECT_NE(fmt_sci(12345.678).find('e'), std::string::npos);
}

TEST(CsvWriter, WritesQuotedCells) {
  const std::string path = testing::TempDir() + "/staleflow_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.add_row({"plain", "with,comma"});
    csv.add_row({"with\"quote", "x"});
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  EXPECT_NE(contents.find("a,b"), std::string::npos);
  EXPECT_NE(contents.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(contents.find("\"with\"\"quote\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWrongColumnCount) {
  const std::string path = testing::TempDir() + "/staleflow_csv_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.add_row({"1"}), std::invalid_argument);
  csv.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace staleflow
