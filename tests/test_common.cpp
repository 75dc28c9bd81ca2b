// Unit tests for the common utilities: RNG determinism and distributions,
// statistics accumulators, table/figure rendering, contract checks, the
// FNV-1a hash and the JSON reader's UTF-8 rule.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace columbia {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 5);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, NextBelowCoversRangeUniformly) {
  Rng r(11);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) counts[r.next_below(10)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 100);  // within 10% of expectation
  }
}

TEST(Rng, NextBelowZeroThrows) {
  Rng r(1);
  EXPECT_THROW(r.next_below(0), ContractError);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(13);
  StatsAccumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(r.normal(2.0, 3.0));
  EXPECT_NEAR(acc.mean(), 2.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 3.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(r.lognormal(0.0, 1.5), 0.0);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng r(23);
  auto p = r.permutation(257);
  std::set<int> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 256);
}

TEST(Rng, PermutationActuallyShuffles) {
  Rng r(23);
  auto p = r.permutation(1000);
  int fixed = 0;
  for (int i = 0; i < 1000; ++i) fixed += (p[static_cast<size_t>(i)] == i);
  EXPECT_LT(fixed, 20);  // expected ~1 fixed point
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng base(99);
  Rng s1 = base.split(1);
  Rng s2 = base.split(2);
  Rng s1_again = base.split(1);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  EXPECT_NE(s1.next_u64(), s2.next_u64());
}

TEST(Stats, MinMaxMean) {
  StatsAccumulator acc;
  for (double v : {3.0, 1.0, 4.0, 1.0, 5.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 14.0 / 5.0);
}

TEST(Stats, VarianceMatchesTextbook) {
  StatsAccumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Stats, GeometricMean) {
  StatsAccumulator acc;
  acc.add(1.0);
  acc.add(4.0);
  acc.add(16.0);
  EXPECT_NEAR(acc.geometric_mean(), 4.0, 1e-12);
}

TEST(Stats, GeometricMeanPoisonedByNonPositive) {
  StatsAccumulator acc;
  acc.add(1.0);
  acc.add(0.0);
  EXPECT_TRUE(std::isnan(acc.geometric_mean()));
}

TEST(Stats, EmptyAccumulatorThrows) {
  StatsAccumulator acc;
  EXPECT_THROW(acc.mean(), ContractError);
  EXPECT_THROW(acc.min(), ContractError);
}

TEST(Stats, MedianOddEven) {
  std::vector<double> odd{5.0, 1.0, 3.0};
  std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median_of(odd), 3.0);
  EXPECT_DOUBLE_EQ(median_of(even), 2.5);
}

TEST(Stats, RelDiff) {
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(rel_diff(90.0, 100.0), 0.1, 1e-12);
}

TEST(Table, RendersAlignedWithTitleAndRows) {
  Table t("Demo", {"name", "value"});
  t.add_row({"alpha", 1.5});
  t.add_row({"b", 42});
  const auto s = t.render();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CellPrecisionControlsFormatting) {
  Table t("P", {"v"});
  t.add_row({Cell(3.14159, 4)});
  EXPECT_EQ(t.at(0, 0), "3.1416");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("X", {"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(Table, CsvRoundTripShape) {
  Table t("T", {"a", "b"});
  t.add_row({1, 2});
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Figure, SeriesAccumulateAndRender) {
  Figure f("Fig", "cpus", "gflops");
  auto& s = f.add_series("BX2b");
  s.add(4, 1.0);
  s.add(8, 0.9);
  EXPECT_EQ(f.series().size(), 1u);
  EXPECT_NE(f.render().find("BX2b"), std::string::npos);
  EXPECT_NE(f.csv().find("BX2b,4,1"), std::string::npos);
}

TEST(Units, Conversions) {
  using namespace units;
  EXPECT_DOUBLE_EQ(to_usec(1e-6), 1.0);
  EXPECT_DOUBLE_EQ(to_mb_per_s(3.2 * GB), 3200.0);
  EXPECT_DOUBLE_EQ(to_gflops(6.0 * GFLOPS), 6.0);
}

TEST(Hash, Fnv1a64StandardVectors) {
  EXPECT_EQ(common::hex64(common::fnv1a64("")), "cbf29ce484222325");
  EXPECT_EQ(common::hex64(common::fnv1a64("a")), "af63dc4c8601ec8c");
  EXPECT_EQ(common::fnv1a64("ab"),
            common::fnv1a64("b", common::fnv1a64("a")));
}

TEST(Json, StringsMustBeWellFormedUtf8) {
  namespace json = common::json;
  json::Value v;
  std::string error;
  // 2-, 3- and 4-byte forms, the edges of each range included, come back
  // byte for byte.
  for (const std::string body :
       {"\xC2\x80", "\xC3\xA9", "\xE0\xA0\x80", "\xED\x9F\xBF",
        "\xF0\x90\x80\x80", "\xF4\x8F\xBF\xBF"}) {
    ASSERT_TRUE(json::parse("\"" + body + "\"", v, error)) << error;
    EXPECT_EQ(v.as_string(), body);
  }
  for (const std::string body : {
           "\xFF",              // bad lead byte
           "\x80",              // lone continuation byte
           "\xC3(",             // bad continuation byte
           "\xC0\xAF",          // overlong 2-byte form
           "\xE0\x80\xAF",      // overlong 3-byte form
           "\xF0\x80\x80\xAF",  // overlong 4-byte form
           "\xED\xA0\x80",      // surrogate U+D800
           "\xF4\x90\x80\x80",  // above U+10FFFF
           "\xE2\x82",          // truncated by the closing quote
       }) {
    EXPECT_FALSE(json::parse("\"" + body + "\"", v, error));
    EXPECT_EQ(error, "json:1:2: invalid UTF-8 in string");
  }
}

}  // namespace
}  // namespace columbia
