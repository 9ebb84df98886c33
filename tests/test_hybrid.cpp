#include <gtest/gtest.h>

#include "fault/grading.h"
#include "gen/registry.h"
#include "netlist/builder.h"
#include "gen/s27.h"
#include "helpers/bounded_config.h"
#include "helpers/exhaustive.h"
#include "helpers/random_circuit.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/depth.h"

namespace gatpg::hybrid {
namespace {

using session::FaultStatus;
using session::JustifyMode;
using session::PassSchedule;
using session::SessionResult;
using test::bounded_ga_config;
using test::bounded_hitec_config;

TEST(PassSchedule, MatchesTableOne) {
  const PassSchedule s = PassSchedule::ga_hitec(1.0);
  ASSERT_EQ(s.passes.size(), 3u);
  EXPECT_EQ(s.passes[0].mode, JustifyMode::kGenetic);
  EXPECT_DOUBLE_EQ(s.passes[0].time_limit_s, 1.0);
  EXPECT_EQ(s.passes[0].ga_population, 64u);
  EXPECT_EQ(s.passes[0].ga_generations, 4u);
  EXPECT_EQ(s.passes[1].mode, JustifyMode::kGenetic);
  EXPECT_DOUBLE_EQ(s.passes[1].time_limit_s, 10.0);
  EXPECT_EQ(s.passes[1].ga_population, 128u);
  EXPECT_EQ(s.passes[1].ga_generations, 8u);
  EXPECT_DOUBLE_EQ(s.passes[1].seq_len_multiplier,
                   2.0 * s.passes[0].seq_len_multiplier);
  EXPECT_EQ(s.passes[2].mode, JustifyMode::kDeterministic);
  EXPECT_DOUBLE_EQ(s.passes[2].time_limit_s, 100.0);
}

TEST(PassSchedule, HitecBaselineEscalatesTimesAndBacktracks) {
  const PassSchedule s = PassSchedule::hitec(1.0);
  ASSERT_EQ(s.passes.size(), 3u);
  for (const auto& p : s.passes) {
    EXPECT_EQ(p.mode, JustifyMode::kDeterministic);
  }
  EXPECT_DOUBLE_EQ(s.passes[1].time_limit_s, 10 * s.passes[0].time_limit_s);
  EXPECT_EQ(s.passes[1].max_backtracks, 10 * s.passes[0].max_backtracks);
}

TEST(HybridAtpg, FullCoverageOnS27) {
  const auto c = gen::make_s27();
  HybridAtpg atpg(c, bounded_ga_config());
  const SessionResult result = atpg.run();
  EXPECT_EQ(result.total_faults, 32u);
  EXPECT_EQ(result.detected() + result.untestable(), 32u);
  EXPECT_EQ(result.untestable(), 0u);  // s27 is fully testable
  // Independent grading must confirm every claimed detection.
  const auto report = fault::grade_sequence(c, result.test_set);
  EXPECT_EQ(report.detected, result.detected());
}

TEST(HybridAtpg, GradingNeverBelowClaimedDetections) {
  for (const char* name : {"g386", "mult4", "div4"}) {
    const auto c = gen::make_circuit(name);
    HybridAtpg atpg(c, bounded_ga_config());
    const SessionResult result = atpg.run();
    const auto report = fault::grade_sequence(c, result.test_set);
    // Claimed detections are all verified before commit, so independent
    // grading of the full test set must reach at least that count.
    EXPECT_GE(report.detected, result.detected()) << name;
  }
}

TEST(HybridAtpg, PassOutcomesAreCumulative) {
  const auto c = gen::make_circuit("g386");
  const SessionResult result = HybridAtpg(c, bounded_ga_config()).run();
  ASSERT_EQ(result.passes.size(), 3u);
  for (std::size_t p = 1; p < result.passes.size(); ++p) {
    EXPECT_GE(result.passes[p].detected, result.passes[p - 1].detected);
    EXPECT_GE(result.passes[p].vectors, result.passes[p - 1].vectors);
    EXPECT_GE(result.passes[p].untestable, result.passes[p - 1].untestable);
    EXPECT_GE(result.passes[p].time_s, result.passes[p - 1].time_s);
  }
}

TEST(HybridAtpg, FaultStatesPartitionTheList) {
  const auto c = gen::make_s27();
  const SessionResult result = HybridAtpg(c, bounded_ga_config()).run();
  std::size_t det = 0, unt = 0, und = 0;
  for (FaultStatus s : result.fault_state) {
    det += s == FaultStatus::kDetected;
    unt += s == FaultStatus::kUntestable;
    und += s == FaultStatus::kUndetected;
  }
  EXPECT_EQ(det, result.detected());
  EXPECT_EQ(unt, result.untestable());
  EXPECT_EQ(det + unt + und, result.total_faults);
}

TEST(HybridAtpg, UntestableClaimsHoldOnSmallCircuits) {
  // Redundant logic: y = a OR (a AND b); plus a state bit to make it
  // sequential.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto bb = b.add_input("b");
  const auto g = b.add_gate(netlist::GateType::kAnd, "g", {a, bb});
  const auto y = b.add_gate(netlist::GateType::kOr, "y", {a, g});
  const auto ff = b.add_dff("ff");
  b.set_dff_input(ff, y);
  b.mark_output(b.add_gate(netlist::GateType::kAnd, "z", {ff, y}));
  const auto c = std::move(b).build("red_seq");

  HybridAtpg atpg(c, bounded_ga_config());
  const SessionResult result = atpg.run();
  const auto& faults = atpg.fault_list().faults;
  for (std::size_t i = 0; i < result.fault_state.size(); ++i) {
    if (result.fault_state[i] == FaultStatus::kUntestable) {
      const auto truth = test::exhaustively_detectable(c, faults[i]);
      if (truth.has_value()) {
        EXPECT_FALSE(*truth) << fault::to_string(c, faults[i]);
      }
    }
  }
  EXPECT_GT(result.untestable(), 0u) << "redundancy should be identified";
}

TEST(HybridAtpg, DeterministicForSameSeed) {
  const auto c = gen::make_s27();
  const SessionResult a = HybridAtpg(c, bounded_ga_config(7)).run();
  const SessionResult b = HybridAtpg(c, bounded_ga_config(7)).run();
  EXPECT_EQ(a.detected(), b.detected());
  EXPECT_EQ(a.test_set, b.test_set);
}

TEST(HybridAtpg, HitecModeAlsoCoversS27) {
  const auto c = gen::make_s27();
  const SessionResult result = HybridAtpg(c, bounded_hitec_config()).run();
  EXPECT_EQ(result.detected(), 32u);
  EXPECT_EQ(fault::grade_sequence(c, result.test_set).detected, 32u);
  // Pure deterministic mode never calls the GA.
  EXPECT_EQ(result.counters.ga_invocations, 0);
}

TEST(HybridAtpg, GaModeActuallyUsesGa) {
  const auto c = gen::make_circuit("g298");
  const SessionResult result = HybridAtpg(c, bounded_ga_config()).run();
  EXPECT_GT(result.counters.ga_invocations, 0);
}

TEST(HybridAtpg, SequenceLengthFollowsSchedule) {
  // seq_len_override wins over the depth multiplier (Table III note).
  const auto c = gen::make_s27();
  HybridConfig cfg = bounded_ga_config();
  cfg.schedule.passes[0].seq_len_override = 24;
  cfg.schedule.passes[1].seq_len_override = 48;
  EXPECT_NO_THROW(HybridAtpg(c, cfg).run());
}

/// Random refutation of Fig. 1's untestable claims on registry circuits,
/// whose state spaces are beyond test::exhaustively_detectable: every fault
/// a bounded GA-HITEC run over a stride sample of the collapsed faults
/// proves untestable is graded from power-up against seeded random
/// sequences by the production fault simulator.  An untestable verdict is a
/// proof, so one detection voids it.
class HybridUntestableRefutation
    : public ::testing::TestWithParam<const char*> {};

/// The fault sample stride of each circuit, which keeps each case near a
/// second.
unsigned refutation_stride(const std::string& circuit) {
  if (circuit == "g298") return 2;
  if (circuit == "g526") return 3;
  if (circuit == "am2910") return 8;
  return 1;
}

TEST_P(HybridUntestableRefutation, RandomSequencesDetectNoClaim) {
  const auto c = gen::make_circuit(GetParam());
  const fault::FaultList all = fault::collapse(c);
  const unsigned stride = refutation_stride(GetParam());
  fault::FaultList sample;
  for (std::size_t i = 0; i < all.size(); i += stride) {
    sample.faults.push_back(all.faults[i]);
    sample.class_sizes.push_back(all.class_sizes[i]);
  }
  const HybridConfig cfg = bounded_ga_config();
  session::Session s(c, sample, cfg.session_config());
  util::Rng rng(cfg.seed);
  HybridEngine engine(c, cfg, netlist::sequential_depth(c), rng);
  const SessionResult result = s.run(engine, cfg.schedule);
  std::vector<fault::Fault> claimed;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (result.fault_state[i] == FaultStatus::kUntestable) {
      claimed.push_back(sample.faults[i]);
    }
  }
  ASSERT_GT(claimed.size(), 0u);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng seq_rng(seed);
    fault::FaultSimulator fs(c, claimed, {1});
    for (const std::size_t i :
         fs.run(test::random_sequence(c, seq_rng, 4000))) {
      ADD_FAILURE() << "sequence seed " << seed << " detects "
                    << fault::to_string(c, claimed[i])
                    << ", claimed untestable";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, HybridUntestableRefutation,
                         ::testing::Values("g298", "g386", "g526", "g820",
                                           "div4", "am2910"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace gatpg::hybrid
