#include <gtest/gtest.h>

#include "fault/compaction.h"
#include "fault/grading.h"
#include "gen/registry.h"
#include "helpers/bounded_config.h"
#include "helpers/random_circuit.h"
#include "hybrid/hybrid_atpg.h"

namespace gatpg::fault {
namespace {

TEST(Compaction, EmptyInputYieldsEmptyOutput) {
  const auto c = gen::make_circuit("s27");
  const auto faults = collapse(c).faults;
  const auto r = compact_segments(c, faults, {});
  EXPECT_TRUE(r.test_set.empty());
  EXPECT_EQ(r.segments_removed, 0u);
}

TEST(Compaction, NeverLosesCoverage) {
  const auto c = gen::make_circuit("s27");
  const auto faults = collapse(c).faults;
  util::Rng rng(3);
  std::vector<sim::Sequence> segments;
  for (int i = 0; i < 12; ++i) {
    segments.push_back(test::random_sequence(c, rng, 4));
  }
  sim::Sequence full;
  for (const auto& s : segments) full.insert(full.end(), s.begin(), s.end());
  const auto before = grade_sequence(c, faults, full).detected;

  const auto r = compact_segments(c, faults, segments);
  EXPECT_EQ(grade_sequence(c, faults, r.test_set).detected, before);
  EXPECT_EQ(r.detected, before);
  EXPECT_LE(r.vectors_after, r.vectors_before);
}

TEST(Compaction, RemovesRedundantDuplicates) {
  // Two identical segments: the second adds nothing and must go.
  const auto c = gen::make_circuit("s27");
  const auto faults = collapse(c).faults;
  util::Rng rng(9);
  const auto seg = test::random_sequence(c, rng, 10);
  const auto r = compact_segments(c, faults, {seg, seg, seg});
  EXPECT_GE(r.segments_removed, 2u);
  EXPECT_EQ(r.segments.size(), 1u);
}

TEST(Compaction, ShrinksAtpgTestSets) {
  const auto c = gen::make_circuit("g344");
  const auto result = hybrid::HybridAtpg(c, test::bounded_ga_config(5)).run();
  ASSERT_FALSE(result.segments.empty());
  // Segment boundaries must reconstruct the concatenated test set.
  sim::Sequence rebuilt;
  for (const auto& s : result.segments) {
    rebuilt.insert(rebuilt.end(), s.begin(), s.end());
  }
  EXPECT_EQ(rebuilt, result.test_set);

  const auto faults = collapse(c).faults;
  const auto compact = compact_segments(c, faults, result.segments);
  EXPECT_LE(compact.vectors_after, result.test_set.size());
  EXPECT_EQ(grade_sequence(c, faults, compact.test_set).detected,
            grade_sequence(c, faults, result.test_set).detected);
}

TEST(Compaction, KeepsLoadBearingEarlySegments) {
  // A segment that another segment depends on (state continuity) must not
  // be dropped even if it detects nothing by itself.  Construct by taking
  // an ATPG set and checking the invariant holds post-compaction.
  const auto c = gen::make_circuit("g298");
  const auto result = hybrid::HybridAtpg(c, test::bounded_ga_config()).run();
  if (result.segments.size() < 2) GTEST_SKIP();
  const auto faults = collapse(c).faults;
  const auto compact = compact_segments(c, faults, result.segments);
  // The defining property (coverage preservation) implies load-bearing
  // segments survived; re-verify explicitly.
  EXPECT_EQ(grade_sequence(c, faults, compact.test_set).detected,
            grade_sequence(c, faults, result.test_set).detected);
}

}  // namespace
}  // namespace gatpg::fault
