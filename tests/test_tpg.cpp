#include <gtest/gtest.h>

#include "fault/grading.h"
#include "gen/registry.h"
#include "tpg/alternating.h"
#include "tpg/randgen.h"
#include "tpg/simgen.h"

namespace gatpg::tpg {
namespace {

TEST(RandomGen, AchievesCoverageOnS27) {
  const auto c = gen::make_circuit("s27");
  RandomGenConfig cfg;
  cfg.seed = 3;
  const auto r = random_pattern_generate(c, cfg);
  EXPECT_EQ(r.total_faults, 32u);
  EXPECT_GE(r.detected(), 28u);  // random does well on s27
  // Claimed coverage must match independent grading.
  EXPECT_EQ(fault::grade_sequence(c, r.test_set).detected, r.detected());
}

TEST(RandomGen, RespectsVectorCap) {
  const auto c = gen::make_circuit("g298");
  RandomGenConfig cfg;
  cfg.max_vectors = 64;
  cfg.stagnation_blocks = 100;  // only the cap can stop it
  const auto r = random_pattern_generate(c, cfg);
  EXPECT_LE(r.test_set.size(), 64u);
}

TEST(RandomGen, StopsOnStagnation) {
  const auto c = gen::make_circuit("g386");  // heavy redundancy: must stall
  RandomGenConfig cfg;
  cfg.max_vectors = 100000;
  cfg.stagnation_blocks = 3;
  const auto r = random_pattern_generate(c, cfg);
  EXPECT_LT(r.test_set.size(), 100000u);
  EXPECT_LT(r.detected(), r.total_faults);
}

TEST(RandomGen, DeterministicPerSeed) {
  const auto c = gen::make_circuit("s27");
  RandomGenConfig cfg;
  cfg.seed = 11;
  const auto a = random_pattern_generate(c, cfg);
  const auto b = random_pattern_generate(c, cfg);
  EXPECT_EQ(a.test_set, b.test_set);
  EXPECT_EQ(a.detected(), b.detected());
}

TEST(RandomGen, WeightedSelectsAProfile) {
  const auto c = gen::make_circuit("g526");
  RandomGenConfig cfg;
  cfg.weighted = true;
  cfg.seed = 5;
  cfg.max_vectors = 512;
  const auto r = random_pattern_generate(c, cfg);
  ASSERT_EQ(r.weights.size(), c.primary_inputs().size());
  // The chosen profile must be from the palette (or the uniform default).
  for (double w : r.weights) {
    EXPECT_TRUE(w == 0.1 || w == 0.25 || w == 0.5 || w == 0.75 || w == 0.9);
  }
  EXPECT_EQ(fault::grade_sequence(c, r.test_set).detected, r.detected());
}

TEST(SimGen, CoversS27) {
  const auto c = gen::make_circuit("s27");
  SimGenConfig cfg;
  cfg.sequence_length = 10;
  cfg.time_limit_s = 10.0;
  cfg.seed = 7;
  SimulationTestGenerator generator(c, cfg);
  const auto r = generator.run();
  EXPECT_GE(r.detected(), 30u);
  EXPECT_EQ(fault::grade_sequence(c, r.test_set).detected, r.detected());
  EXPECT_GT(r.rounds, 0);
  EXPECT_GT(r.evaluations, 0);
}

TEST(SimGen, StepwiseMatchesBatch) {
  const auto c = gen::make_circuit("s27");
  SimGenConfig cfg;
  cfg.sequence_length = 10;
  cfg.seed = 9;
  SimulationTestGenerator generator(c, cfg);
  const auto deadline = util::Deadline::after_seconds(10);
  std::size_t total = 0;
  for (int i = 0; i < 5; ++i) total += generator.step(deadline);
  EXPECT_EQ(generator.fault_simulator().detected_count(), total);
  EXPECT_EQ(fault::grade_sequence(c, generator.test_set()).detected, total);
}

TEST(SimGen, ApplyDropsDetectedFaults) {
  const auto c = gen::make_circuit("s27");
  SimGenConfig cfg;
  SimulationTestGenerator generator(c, cfg);
  util::Rng rng(3);
  sim::Sequence seq;
  for (int i = 0; i < 30; ++i) {
    sim::Vector3 v(c.primary_inputs().size());
    for (auto& bit : v) bit = rng.bit() ? sim::V3::k1 : sim::V3::k0;
    seq.push_back(v);
  }
  const std::size_t newly = generator.apply(seq);
  EXPECT_EQ(newly, generator.fault_simulator().detected_count());
  // Re-applying the same sequence detects nothing new.
  EXPECT_EQ(generator.apply(seq), 0u);
}

TEST(SimGen, FitnessShapingUsesStateEffects) {
  // what_if must report state effects for a fault whose effect reaches a
  // flip-flop but not (yet) an output: DFF D-pin fault on s27 after one
  // vector.
  const auto c = gen::make_circuit("s27");
  const auto faults = fault::collapse(c).faults;
  fault::FaultSimulator fs(c, faults);
  // One defined vector: effects load into flip-flops.
  sim::Sequence seq{{sim::V3::k0, sim::V3::k0, sim::V3::k0, sim::V3::k0}};
  std::vector<std::size_t> all_indices(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) all_indices[i] = i;
  const auto what = fs.what_if(all_indices, seq);
  EXPECT_GT(what.detected + what.state_effects, 0u);
}

TEST(Alternating, ResolvesS27Completely) {
  const auto c = gen::make_circuit("s27");
  AlternatingConfig cfg;
  cfg.sequence_length = 10;
  cfg.time_limit_s = 20.0;
  cfg.det_limits.time_limit_s = 1.0;
  cfg.seed = 5;
  const auto r = alternating_hybrid_generate(c, cfg);
  EXPECT_EQ(r.total_faults, 32u);
  EXPECT_EQ(r.detected() + r.untestable(), 32u);
  EXPECT_EQ(fault::grade_sequence(c, r.test_set).detected, r.detected());
}

/// The AlternatingG386 golden's config (test_session.cpp): a small GA and no
/// binding wall-clock limit.  The deterministic phase is capped by
/// backtracks only, so the run is a pure function of the config.
AlternatingConfig bounded_g386_config() {
  AlternatingConfig cfg;
  cfg.population = 16;
  cfg.generations = 2;
  cfg.sequence_length = 12;
  cfg.fault_sample = 16;
  cfg.switch_after = 1;
  cfg.time_limit_s = 1000.0;
  cfg.det_limits.time_limit_s = 1000.0;
  cfg.det_limits.max_backtracks = 300;
  cfg.det_failures_to_stop = 4;
  cfg.seed = 9;
  return cfg;
}

TEST(Alternating, SwitchesToDeterministicPhase) {
  // g386's redundancy starves the GA quickly; the deterministic phase must
  // get invoked.
  const auto c = gen::make_circuit("g386");
  const auto r = alternating_hybrid_generate(c, bounded_g386_config());
  EXPECT_GT(r.counters.targeted, 0);
}

TEST(Alternating, UntestableClaimsConsistentWithGrading) {
  const auto c = gen::make_circuit("g386");
  const auto r = alternating_hybrid_generate(c, bounded_g386_config());
  EXPECT_LE(r.detected() + r.untestable(), r.total_faults);
  // Independent grading of the run's own test set detects none of the
  // faults it claims untestable.
  const auto faults = fault::collapse(c).faults;
  ASSERT_EQ(r.fault_state.size(), faults.size());
  std::vector<fault::Fault> claimed;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (r.fault_state[i] == session::FaultStatus::kUntestable) {
      claimed.push_back(faults[i]);
    }
  }
  EXPECT_EQ(claimed.size(), r.untestable());
  EXPECT_GT(claimed.size(), 0u);
  EXPECT_EQ(fault::grade_sequence(c, claimed, r.test_set).detected, 0u);
}

}  // namespace
}  // namespace gatpg::tpg
