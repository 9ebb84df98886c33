// Session-layer tests: FaultManager lifecycle and drop credit,
// TestSetBuilder invariants, and golden equivalence — the session-based
// generators must reproduce the exact pre-refactor test sets, detection
// counts, fault states and counters (captured before the refactor),
// independent of worker-thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "gen/registry.h"
#include "hybrid/hybrid_atpg.h"
#include "session/fault_manager.h"
#include "session/session.h"
#include "session/test_set_builder.h"
#include "tpg/alternating.h"
#include "tpg/randgen.h"
#include "tpg/simgen.h"

namespace gatpg {
namespace {

// ---------------------------------------------------------------------------
// FaultManager

fault::FaultList s27_faults() {
  static const netlist::Circuit c = gen::make_circuit("s27");
  return fault::collapse(c);
}

TEST(FaultManager, StartsAllUndetected) {
  session::FaultManager fm(s27_faults());
  EXPECT_EQ(fm.size(), 32u);
  EXPECT_EQ(fm.detected_count(), 0u);
  EXPECT_EQ(fm.untestable_count(), 0u);
  EXPECT_EQ(fm.undetected_count(), 32u);
  EXPECT_FALSE(fm.all_resolved());
  EXPECT_EQ(fm.undetected_indices().size(), 32u);
  EXPECT_EQ(fm.undropped_indices().size(), 32u);
}

TEST(FaultManager, LifecycleTransitions) {
  session::FaultManager fm(s27_faults());
  fm.mark_detected(3);
  EXPECT_EQ(fm.status(3), session::FaultStatus::kDetected);
  EXPECT_EQ(fm.detected_count(), 1u);
  // Re-marking is a no-op.
  fm.mark_detected(3);
  EXPECT_EQ(fm.detected_count(), 1u);

  fm.mark_untestable(5);
  EXPECT_EQ(fm.status(5), session::FaultStatus::kUntestable);
  EXPECT_EQ(fm.untestable_count(), 1u);
  // A detected fault cannot become untestable.
  fm.mark_untestable(3);
  EXPECT_EQ(fm.status(3), session::FaultStatus::kDetected);
  EXPECT_EQ(fm.untestable_count(), 1u);

  // Detection overrides an (unsound) untestable claim and fixes the counts.
  fm.mark_detected(5);
  EXPECT_EQ(fm.status(5), session::FaultStatus::kDetected);
  EXPECT_EQ(fm.untestable_count(), 0u);
  EXPECT_EQ(fm.detected_count(), 2u);
  EXPECT_EQ(fm.undetected_count(), 30u);
}

TEST(FaultManager, AbsorbDetectionsCreditsOnlyUndetected) {
  session::FaultManager fm(s27_faults());
  fm.mark_detected(0);
  fm.mark_untestable(1);
  std::vector<char> drop(fm.size(), 0);
  drop[0] = 1;  // already detected: no credit
  drop[1] = 1;  // claimed untestable: no credit (claim stands)
  drop[2] = 1;  // fresh detection: credited
  EXPECT_EQ(fm.absorb_detections(drop), 1u);
  EXPECT_EQ(fm.detected_count(), 2u);
  EXPECT_EQ(fm.status(1), session::FaultStatus::kUntestable);
  // Re-absorbing the same drop list credits nothing new.
  EXPECT_EQ(fm.absorb_detections(drop), 0u);
}

TEST(FaultManager, AbortedFlagsAreScopedToAPass) {
  session::FaultManager fm(s27_faults());
  fm.begin_pass();
  fm.mark_aborted(4);
  fm.mark_aborted(4);  // same pass: flag once, total twice
  EXPECT_TRUE(fm.aborted_this_pass(4));
  EXPECT_EQ(fm.aborted_total(), 2);
  fm.begin_pass();
  EXPECT_FALSE(fm.aborted_this_pass(4));
  EXPECT_EQ(fm.aborted_total(), 2);  // the all-run total survives
}

TEST(FaultManager, NextUndetectedWrapsRoundRobin) {
  session::FaultManager fm(s27_faults());
  for (std::size_t i = 0; i < fm.size(); ++i) {
    if (i != 2 && i != 30) fm.mark_detected(i);
  }
  EXPECT_EQ(fm.next_undetected(0), 2u);
  EXPECT_EQ(fm.next_undetected(3), 30u);
  EXPECT_EQ(fm.next_undetected(31), 2u);    // wraps
  EXPECT_EQ(fm.next_undetected(fm.size()), 2u);
  fm.mark_detected(2);
  fm.mark_untestable(30);  // untestable is not a target
  EXPECT_EQ(fm.next_undetected(0), fm.size());
}

TEST(FaultManager, SampleDrawsNoRngBelowMax) {
  session::FaultManager fm(s27_faults());
  util::Rng rng_a(7), rng_b(7);
  // Population <= max: returned verbatim, rng untouched.
  const auto all = fm.sample_undropped(rng_a, fm.size());
  EXPECT_EQ(all.size(), fm.size());
  EXPECT_EQ(rng_a(), rng_b());  // same stream position
}

TEST(FaultManager, SampleIncludesUntestableExcludesDetected) {
  session::FaultManager fm(s27_faults());
  fm.mark_detected(0);
  fm.mark_untestable(1);
  util::Rng rng(7);
  const auto sample = fm.sample_undropped(rng, fm.size());
  EXPECT_EQ(sample.size(), fm.size() - 1);  // only the detected one dropped
  for (std::size_t i : sample) EXPECT_NE(i, 0u);
  EXPECT_NE(std::find(sample.begin(), sample.end(), 1u), sample.end());
}

// ---------------------------------------------------------------------------
// TestSetBuilder

TEST(TestSetBuilder, FlatSetIsConcatenationOfSegments) {
  session::TestSetBuilder b;
  sim::Vector3 v1{sim::V3::k0, sim::V3::k1};
  sim::Vector3 v2{sim::V3::k1, sim::V3::k1};
  sim::Vector3 v3{sim::V3::kX, sim::V3::k0};
  EXPECT_EQ(b.commit({v1, v2}), 0u);
  EXPECT_EQ(b.commit({v3}), 1u);
  EXPECT_EQ(b.vectors(), 3u);
  EXPECT_EQ(b.segment_count(), 2u);
  sim::Sequence concat;
  for (const auto& seg : b.segments()) {
    concat.insert(concat.end(), seg.begin(), seg.end());
  }
  EXPECT_EQ(concat, b.test_set());
}

// ---------------------------------------------------------------------------
// Golden equivalence
//
// The constants below were produced by the pre-refactor generators.
// Configurations bind only on deterministic
// budgets (backtracks, solution counts, stagnation) — wall-clock limits are
// set far beyond any plausible runtime — so the values are reproducible.

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}

std::uint64_t hash_sequence(const sim::Sequence& seq) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& vec : seq) {
    h = fnv1a(h, 0x5eedULL);
    for (sim::V3 v : vec) h = fnv1a(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

std::uint64_t hash_segments(const std::vector<sim::Sequence>& segs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& s : segs) {
    h = fnv1a(h, s.size());
    h = fnv1a(h, hash_sequence(s));
  }
  return h;
}

std::uint64_t hash_state(const std::vector<session::FaultStatus>& state) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (auto s : state) h = fnv1a(h, static_cast<std::uint64_t>(s));
  return h;
}

class GoldenEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(GoldenEquivalence, HybridGaHitecS27) {
  const auto c = gen::make_circuit("s27");
  hybrid::HybridConfig cfg;
  cfg.schedule = session::PassSchedule::ga_hitec(1.0);
  cfg.seed = 7;
  cfg.parallel.threads = GetParam();
  const auto r = hybrid::HybridAtpg(c, cfg).run();
  EXPECT_EQ(hash_sequence(r.test_set), 0x323e06016efe6373ULL);
  EXPECT_EQ(hash_segments(r.segments), 0x492c98a2e68d32e2ULL);
  EXPECT_EQ(hash_state(r.fault_state), 0x38df9853f4efb1c5ULL);
  EXPECT_EQ(r.detected(), 32u);
  EXPECT_EQ(r.untestable(), 0u);
  EXPECT_EQ(r.test_set.size(), 20u);
  EXPECT_EQ(r.segments.size(), 7u);
  EXPECT_EQ(r.counters.targeted, 8);
  EXPECT_EQ(r.counters.forward_solutions, 10);
  EXPECT_EQ(r.counters.ga_invocations, 9);
  EXPECT_EQ(r.counters.ga_successes, 6);
  EXPECT_EQ(r.counters.no_justification_needed, 1);
  EXPECT_EQ(r.counters.aborted_faults, 1);
  EXPECT_EQ(r.counters.committed_tests, 7);
  ASSERT_EQ(r.passes.size(), 3u);
  for (const auto& pass : r.passes) {
    EXPECT_EQ(pass.detected, 32u);
    EXPECT_EQ(pass.vectors, 20u);
    EXPECT_EQ(pass.untestable, 0u);
  }
}

TEST_P(GoldenEquivalence, HybridHitecS27) {
  const auto c = gen::make_circuit("s27");
  hybrid::HybridConfig cfg;
  cfg.schedule = session::PassSchedule::hitec(1.0);
  cfg.seed = 7;
  cfg.parallel.threads = GetParam();
  const auto r = hybrid::HybridAtpg(c, cfg).run();
  EXPECT_EQ(hash_sequence(r.test_set), 0x8b3b113654070191ULL);
  EXPECT_EQ(hash_segments(r.segments), 0x4fee217ca767fae0ULL);
  EXPECT_EQ(hash_state(r.fault_state), 0x38df9853f4efb1c5ULL);
  EXPECT_EQ(r.detected(), 32u);
  EXPECT_EQ(r.test_set.size(), 25u);
  EXPECT_EQ(r.segments.size(), 8u);
  EXPECT_EQ(r.counters.targeted, 8);
  EXPECT_EQ(r.counters.forward_solutions, 8);
  EXPECT_EQ(r.counters.det_justify_calls, 8);
  EXPECT_EQ(r.counters.det_justify_successes, 8);
  EXPECT_EQ(r.counters.ga_invocations, 0);
}

TEST_P(GoldenEquivalence, HybridGaHitecG298) {
  // Mid-size circuit, deterministic budgets binding (300 backtracks, 4
  // forward solutions per fault), wall-clock limits never binding.
  const auto c = gen::make_circuit("g298");
  hybrid::HybridConfig cfg;
  cfg.schedule = session::PassSchedule::ga_hitec(1.0);
  for (auto& p : cfg.schedule.passes) {
    p.time_limit_s = 1000.0;
    p.max_backtracks = 300;
  }
  cfg.schedule.passes[0].ga_population = 64;
  cfg.schedule.passes[0].ga_generations = 2;
  cfg.schedule.passes[1].ga_population = 64;
  cfg.schedule.passes[1].ga_generations = 2;
  cfg.max_solutions_per_fault = 4;
  cfg.seed = 3;
  cfg.parallel.threads = GetParam();
  const auto r = hybrid::HybridAtpg(c, cfg).run();
  EXPECT_EQ(hash_sequence(r.test_set), 0xb9a5941295a3f26aULL);
  EXPECT_EQ(hash_segments(r.segments), 0xfa926ee8bf40e530ULL);
  EXPECT_EQ(hash_state(r.fault_state), 0x70b1ab61ce78e845ULL);
  EXPECT_EQ(r.detected(), 338u);
  EXPECT_EQ(r.untestable(), 131u);
  EXPECT_EQ(r.test_set.size(), 134u);
  EXPECT_EQ(r.segments.size(), 24u);
  EXPECT_EQ(r.counters.targeted, 1188);
  EXPECT_EQ(r.counters.forward_solutions, 1009);
  EXPECT_EQ(r.counters.ga_invocations, 848);
  EXPECT_EQ(r.counters.ga_successes, 19);
  EXPECT_EQ(r.counters.det_justify_calls, 144);
  EXPECT_EQ(r.counters.det_justify_successes, 12);
  EXPECT_EQ(r.counters.verify_failures, 24);
  EXPECT_EQ(r.counters.no_justification_needed, 17);
  EXPECT_EQ(r.counters.aborted_faults, 1033);
  ASSERT_EQ(r.passes.size(), 3u);
  EXPECT_EQ(r.passes[0].detected, 327u);
  EXPECT_EQ(r.passes[0].vectors, 121u);
  EXPECT_EQ(r.passes[0].untestable, 131u);
  EXPECT_EQ(r.passes[1].detected, 338u);
  EXPECT_EQ(r.passes[1].vectors, 134u);
  EXPECT_EQ(r.passes[2].detected, 338u);
}

TEST_P(GoldenEquivalence, SimGenS27) {
  const auto c = gen::make_circuit("s27");
  tpg::SimGenConfig cfg;
  cfg.population = 16;
  cfg.generations = 3;
  cfg.sequence_length = 8;
  cfg.fault_sample = 8;
  cfg.stagnation_rounds = 2;
  cfg.time_limit_s = 1000.0;
  cfg.seed = 7;
  cfg.faultsim.parallel.threads = GetParam();
  const auto r = tpg::SimulationTestGenerator(c, cfg).run();
  EXPECT_EQ(hash_sequence(r.test_set), 0x178cb02bb4482e41ULL);
  EXPECT_EQ(r.detected(), 32u);
  EXPECT_EQ(r.test_set.size(), 24u);
  EXPECT_EQ(r.rounds, 3);
  EXPECT_EQ(r.evaluations, 144);
}

TEST_P(GoldenEquivalence, SimGenG386) {
  const auto c = gen::make_circuit("g386");
  tpg::SimGenConfig cfg;
  cfg.population = 16;
  cfg.generations = 2;
  cfg.sequence_length = 12;
  cfg.fault_sample = 32;
  cfg.stagnation_rounds = 2;
  cfg.time_limit_s = 1000.0;
  cfg.seed = 11;
  cfg.faultsim.parallel.threads = GetParam();
  const auto r = tpg::SimulationTestGenerator(c, cfg).run();
  EXPECT_EQ(hash_sequence(r.test_set), 0xe7bddc98edbe3ca1ULL);
  EXPECT_EQ(r.detected(), 433u);
  EXPECT_EQ(r.test_set.size(), 156u);
  EXPECT_EQ(r.rounds, 13);
  EXPECT_EQ(r.evaluations, 416);
}

TEST_P(GoldenEquivalence, AlternatingS27) {
  const auto c = gen::make_circuit("s27");
  tpg::AlternatingConfig cfg;
  cfg.population = 16;
  cfg.generations = 2;
  cfg.sequence_length = 8;
  cfg.fault_sample = 8;
  cfg.switch_after = 1;
  cfg.time_limit_s = 1000.0;
  cfg.det_limits.time_limit_s = 1000.0;
  cfg.det_limits.max_backtracks = 500;
  cfg.seed = 5;
  cfg.faultsim.parallel.threads = GetParam();
  const auto r = tpg::alternating_hybrid_generate(c, cfg);
  EXPECT_EQ(hash_sequence(r.test_set), 0x188d926f93090259ULL);
  EXPECT_EQ(r.detected(), 32u);
  EXPECT_EQ(r.untestable(), 0u);
  EXPECT_EQ(r.test_set.size(), 24u);
  EXPECT_EQ(r.rounds, 3);
  EXPECT_EQ(r.counters.targeted, 0);
  EXPECT_EQ(r.counters.committed_tests, 0);
}

TEST_P(GoldenEquivalence, AlternatingG386) {
  const auto c = gen::make_circuit("g386");
  tpg::AlternatingConfig cfg;
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
  cfg.faultsim.parallel.threads = GetParam();
  const auto r = tpg::alternating_hybrid_generate(c, cfg);
  // The deterministic phase is HybridEngine::step, so forward exhaustion
  // with every required state proven unjustifiable is an untestable proof.
  EXPECT_EQ(hash_sequence(r.test_set), 0x15cb466ff8d3509eULL);
  EXPECT_EQ(r.detected(), 447u);
  EXPECT_EQ(r.untestable(), 386u);
  EXPECT_EQ(r.test_set.size(), 5026u);
  EXPECT_EQ(r.rounds, 418);
  EXPECT_EQ(r.counters.targeted, 405);
  EXPECT_EQ(r.counters.committed_tests, 1);
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenEquivalence,
                         ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(GoldenEquivalenceSerial, RandomS27) {
  const auto c = gen::make_circuit("s27");
  tpg::RandomGenConfig cfg;
  cfg.seed = 3;
  const auto r = tpg::random_pattern_generate(c, cfg);
  EXPECT_EQ(hash_sequence(r.test_set), 0xe0ffcb59a81ec7e8ULL);
  EXPECT_EQ(r.detected(), 32u);
  EXPECT_EQ(r.test_set.size(), 64u);
}

TEST(GoldenEquivalenceSerial, WeightedRandomG526) {
  // Exercises the hoisted audition probe (reset_all between trials).
  const auto c = gen::make_circuit("g526");
  tpg::RandomGenConfig cfg;
  cfg.seed = 5;
  cfg.weighted = true;
  cfg.max_vectors = 512;
  const auto r = tpg::random_pattern_generate(c, cfg);
  EXPECT_EQ(hash_sequence(r.test_set), 0xce616436ab95c719ULL);
  EXPECT_EQ(r.detected(), 590u);
  EXPECT_EQ(r.test_set.size(), 512u);
  std::uint64_t wh = 0xcbf29ce484222325ULL;
  for (double w : r.weights) {
    wh = fnv1a(wh, static_cast<std::uint64_t>(w * 100));
  }
  EXPECT_EQ(wh, 0x70c0093f3ae5e9aaULL);
}

// ---------------------------------------------------------------------------
// Session plumbing

TEST(Session, SegmentsConcatenateToTestSet) {
  const auto c = gen::make_circuit("s27");
  hybrid::HybridConfig cfg;
  cfg.schedule = session::PassSchedule::ga_hitec(1.0);
  cfg.seed = 7;
  const auto r = hybrid::HybridAtpg(c, cfg).run();
  sim::Sequence concat;
  for (const auto& seg : r.segments) {
    concat.insert(concat.end(), seg.begin(), seg.end());
  }
  EXPECT_EQ(concat, r.test_set);
}

class CountingObserver : public session::ProgressObserver {
 public:
  int begins = 0, pass_begins = 0, pass_ends = 0, ends = 0;
  std::vector<session::PassOutcome> rows;

  void on_session_begin(const session::Session&) override { ++begins; }
  void on_pass_begin(const session::Session&, std::size_t,
                     const session::PassConfig&) override {
    ++pass_begins;
  }
  void on_pass_end(const session::Session&, std::size_t,
                   const session::PassOutcome& outcome) override {
    ++pass_ends;
    rows.push_back(outcome);
  }
  void on_session_end(const session::Session&,
                      const session::SessionResult&) override {
    ++ends;
  }
};

TEST(Session, ObserverSeesEveryPass) {
  const auto c = gen::make_circuit("s27");
  hybrid::HybridConfig cfg;
  cfg.schedule = session::PassSchedule::ga_hitec(1.0);
  cfg.seed = 7;
  CountingObserver observer;
  const auto r = hybrid::HybridAtpg(c, cfg).run(&observer);
  EXPECT_EQ(observer.begins, 1);
  EXPECT_EQ(observer.pass_begins, 3);
  EXPECT_EQ(observer.pass_ends, 3);
  EXPECT_EQ(observer.ends, 1);
  ASSERT_EQ(observer.rows.size(), r.passes.size());
  for (std::size_t i = 0; i < r.passes.size(); ++i) {
    EXPECT_EQ(observer.rows[i].detected, r.passes[i].detected);
    EXPECT_EQ(observer.rows[i].vectors, r.passes[i].vectors);
  }
}

}  // namespace
}  // namespace gatpg
