#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <thread>

#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/tableprint.h"

namespace gatpg::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[i]);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ChanceThresholdIsChanceDrawForDraw) {
  // chance(p) and "draw < chance_threshold(p)" must agree on every draw,
  // and the threshold must sit exactly where chance's comparison flips.
  const double scale =
      1.0 / static_cast<double>(std::numeric_limits<std::uint64_t>::max());
  for (const double p : {1e-300, 1.0 / 64.0, 0.25, 0.5, 1.0 / 3.0,
                         0.999999, 1.0 - 0x1.0p-53}) {
    const std::uint64_t t = Rng::chance_threshold(p);
    ASSERT_GT(t, 0u) << p;
    EXPECT_TRUE(static_cast<double>(t - 1) * scale < p) << p;
    EXPECT_FALSE(static_cast<double>(t) * scale < p) << p;
    Rng a(31), b(31);
    for (int i = 0; i < 4000; ++i) {
      ASSERT_EQ(a.chance(p), b() < t) << p << " draw " << i;
    }
  }
}

TEST(Rng, UniformInHalfOpenInterval) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(sw.millis(), 15.0);
  sw.restart();
  EXPECT_LT(sw.millis(), 15.0);
}

TEST(Deadline, UnlimitedNeverExpires) {
  const auto d = Deadline::unlimited();
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 1e12);
}

TEST(Deadline, NonPositiveLimitMeansUnlimited) {
  EXPECT_FALSE(Deadline::after_seconds(0.0).expired());
  EXPECT_FALSE(Deadline::after_seconds(-1.0).expired());
}

TEST(Deadline, ExpiresAfterLimit) {
  const auto d = Deadline::after_seconds(0.01);
  EXPECT_FALSE(d.expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_TRUE(d.expired());
}

TEST(FormatDuration, MatchesPaperStyle) {
  EXPECT_EQ(format_duration(49.5), "49.5s");
  EXPECT_EQ(format_duration(5.96 * 60), "5.96m");
  EXPECT_EQ(format_duration(2.39 * 3600), "2.39h");
  EXPECT_EQ(format_duration(0.5), "0.5s");
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"a", "bbbb"});
  t.add_row({"xxx", "y"});
  t.add_rule();
  t.add_row({"1", "2"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("a    bbbb"), std::string::npos);
  EXPECT_NE(out.find("xxx  y"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinter, RejectsArityMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(FormatSig, SignificantDigits) {
  EXPECT_EQ(format_sig(123.456, 3), "123");
  EXPECT_EQ(format_sig(0.0123456, 3), "0.0123");
}

}  // namespace
}  // namespace gatpg::util
