// Differential engine vs the full-sweep oracle.
//
// The production PROOFS engine (good-machine seeding + excitation screening +
// dynamic repacking) must be bit-identical to the naive full-sweep simulator
// of helpers/full_sweep_faultsim.h: same detections, same detection *order*,
// same persisted faulty flip-flop states and transition launch anchors, same
// good-machine state — across randomized circuits, both fault universes,
// random (including partially-X) sequences, multi-run sessions, any window
// size, and any thread count (the thread-count check also runs on every
// registry circuit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "gen/registry.h"
#include "helpers/full_sweep_faultsim.h"
#include "helpers/random_circuit.h"
#include "helpers/differential.h"

namespace {

using namespace gatpg;
using fault::FaultSimConfig;
using fault::FaultSimulator;
using fault::FaultUniverse;
using test::FullSweepFaultSim;

FaultSimConfig make_config(unsigned threads, unsigned window = 32) {
  FaultSimConfig config;
  config.parallel.threads = threads;
  config.window = window;
  return config;
}

std::vector<test::RandomCircuitSpec> specs() {
  std::vector<test::RandomCircuitSpec> out;
  out.push_back({4, 3, 30, 3, 11});
  out.push_back({6, 5, 90, 4, 22});
  out.push_back({8, 8, 160, 6, 33});
  out.push_back({5, 0, 40, 3, 44});  // purely combinational (no flip-flops)
  return out;
}

/// A session of several run() extensions with varying X density, exercising
/// state persistence, fault dropping, and cross-window behaviour.
std::vector<sim::Sequence> session_chunks(const netlist::Circuit& c,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  return {test::random_sequence(c, rng, 17, 0.0),
          test::random_sequence(c, rng, 9, 0.25),
          test::random_sequence(c, rng, 41, 0.1)};
}

/// Runs `chunks` through both simulators (each a fresh session over the same
/// `n` faults) and checks every observable the session contract fixes.
template <typename A, typename B>
void expect_sessions_match(A& a, B& b, std::size_t n,
                           const std::vector<sim::Sequence>& chunks) {
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    const auto newly_a = a.run(chunks[k]);
    const auto newly_b = b.run(chunks[k]);
    ASSERT_EQ(newly_a, newly_b) << "detection lists differ at chunk " << k;
  }
  ASSERT_EQ(a.detected(), b.detected());
  ASSERT_EQ(a.detected_count(), b.detected_count());
  ASSERT_EQ(a.good_state(), b.good_state());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.fault_state(i), b.fault_state(i))
        << "persisted faulty state differs for fault " << i;
    ASSERT_EQ(a.launch_prev(i), b.launch_prev(i))
        << "launch anchor differs for fault " << i;
  }
}

/// The differential engine under `config` against the oracle.
void expect_matches_oracle(const netlist::Circuit& c,
                           const std::vector<fault::Fault>& faults,
                           const std::vector<sim::Sequence>& chunks,
                           FaultSimConfig config) {
  FaultSimulator diff(c, faults, config);
  FullSweepFaultSim oracle(c, faults);
  expect_sessions_match(diff, oracle, faults.size(), chunks);
}

TEST(FaultSimDiff, MatchesFullSweepSerial) {
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c).faults;
    expect_matches_oracle(c, faults, session_chunks(c, spec.seed),
                          make_config(1));
  }
}

TEST(FaultSimDiff, MatchesFullSweepThreaded) {
  // Strongest cross-check: differential at 4 threads vs the serial oracle.
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c).faults;
    expect_matches_oracle(c, faults, session_chunks(c, spec.seed),
                          make_config(4));
  }
}

TEST(FaultSimDiff, TransitionSessionMatchesFullSweep) {
  // The transition universe adds the launch anchor, carried from frame to
  // frame, across window boundaries and across run() calls; short windows
  // put boundaries inside every chunk.
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c, FaultUniverse::kTransition).faults;
    for (const unsigned threads : {1u, 4u}) {
      for (const unsigned window : {3u, 32u}) {
        SCOPED_TRACE("seed " + std::to_string(spec.seed) + " threads " +
                     std::to_string(threads) + " window " +
                     std::to_string(window));
        expect_matches_oracle(c, faults, session_chunks(c, spec.seed),
                              make_config(threads, window));
      }
    }
  }
}

TEST(FaultSimDiff, ThreadCountIndependent) {
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c).faults;
    FaultSimulator one(c, faults, make_config(1));
    FaultSimulator four(c, faults, make_config(4));
    expect_sessions_match(one, four, faults.size(),
                          session_chunks(c, spec.seed));
  }
  // Every registry circuit, in one bounded session each: a fault sample of
  // at most 97 (deliberately not a multiple of 64, so the last group's slot
  // mask is partial), stride-spread across the circuit, over a short
  // mixed-X sequence.
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE("circuit " + name);
    const auto c = gen::make_circuit(name);
    const auto all = fault::collapse(c).faults;
    const std::size_t target = std::min<std::size_t>(all.size(), 97);
    const std::size_t stride = std::max<std::size_t>(all.size() / target, 1);
    std::vector<fault::Fault> faults;
    for (std::size_t i = 0; i < all.size() && faults.size() < target;
         i += stride) {
      faults.push_back(all[i]);
    }
    util::Rng rng(std::hash<std::string>{}(name));
    const std::vector<sim::Sequence> chunks = {
        test::random_sequence(c, rng, 8, 0.0),
        test::random_sequence(c, rng, 6, 0.2)};
    FaultSimulator four(c, faults, make_config(4));
    FaultSimulator one(c, faults, make_config(1));
    expect_sessions_match(four, one, faults.size(), chunks);
  }
}

TEST(FaultSimDiff, WindowIndependent) {
  // Window boundaries decide when repacking happens and how much of the good
  // machine is recorded at once; none of it may show in the results.
  const test::RandomCircuitSpec spec{6, 5, 90, 4, 7};
  const auto c = test::make_random_circuit(spec);
  const auto faults = fault::collapse(c).faults;
  for (unsigned window : {1u, 2u, 7u, 64u}) {
    expect_matches_oracle(c, faults, session_chunks(c, 99),
                          make_config(2, window));
  }
}

/// what_if from a nontrivial session state, over all faults and over a small
/// subset, against the oracle; afterwards both sessions must continue
/// identically (what_if is non-mutating).
void expect_what_if_matches(const netlist::Circuit& c,
                            const std::vector<fault::Fault>& faults,
                            FaultSimConfig config, std::uint64_t seed) {
  FaultSimulator diff(c, faults, config);
  FullSweepFaultSim full(c, faults);

  // Advance both sessions so what_if starts from a nontrivial state.
  util::Rng rng(seed);
  const auto warmup = test::random_sequence(c, rng, 13, 0.1);
  ASSERT_EQ(diff.run(warmup), full.run(warmup));

  std::vector<std::size_t> all(faults.size());
  std::iota(all.begin(), all.end(), 0);
  const auto probe = test::random_sequence(c, rng, 21, 0.15);

  const auto wa = diff.what_if(all, probe);
  const auto wb = full.what_if(all, probe);
  EXPECT_EQ(wa.detected, wb.detected);
  EXPECT_EQ(wa.state_effects, wb.state_effects);

  // Subset query (the GA's sampled-fault fitness shape).
  const std::vector<std::size_t> subset(
      all.begin(), all.begin() + std::min<std::size_t>(all.size(), 7));
  const auto sa = diff.what_if(subset, probe);
  const auto sb = full.what_if(subset, probe);
  EXPECT_EQ(sa.detected, sb.detected);
  EXPECT_EQ(sa.state_effects, sb.state_effects);

  // what_if must not have touched the sessions: continuing them still
  // yields identical detections, states and launch anchors.
  expect_sessions_match(diff, full, faults.size(),
                        {test::random_sequence(c, rng, 11, 0.0)});
}

TEST(FaultSimDiff, WhatIfMatchesFullSweepAndKeepsSessionIntact) {
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    expect_what_if_matches(c, fault::collapse(c).faults, make_config(4),
                           spec.seed + 5);
  }
}

TEST(FaultSimDiff, TransitionWhatIfMatchesFullSweep) {
  // The what-if starts from the session's launch anchors and carries them
  // across its own window boundaries (window 4 < probe length).
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c, FaultUniverse::kTransition).faults;
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(spec.seed) + " threads " +
                   std::to_string(threads));
      expect_what_if_matches(c, faults, make_config(threads, 4),
                             spec.seed + 5);
    }
  }
}

TEST(FaultSimDiff, StatsAreDeterministicAndConsistent) {
  const test::RandomCircuitSpec spec{6, 5, 90, 4, 13};
  const auto c = test::make_random_circuit(spec);
  const auto faults = fault::collapse(c).faults;

  auto run_session = [&](unsigned threads) {
    FaultSimulator fs(c, faults, make_config(threads, 8));
    for (const auto& chunk : session_chunks(c, 42)) fs.run(chunk);
    return fs.stats();
  };
  const auto s1 = run_session(1);
  const auto s4 = run_session(4);

  // All counters are exactly thread-count-independent.
  test::expect_counters_equal(s1, s4);

  EXPECT_GT(s1.gate_evals, 0u);
  EXPECT_GT(s1.good_gate_evals, 0u);
  EXPECT_EQ(s1.frames, 17u + 9u + 41u);
  EXPECT_LE(s1.group_vectors_skipped, s1.group_vectors);
  EXPECT_GE(s1.skip_rate(), 0.0);
  EXPECT_LE(s1.skip_rate(), 1.0);

  // reset_stats clears everything.
  FaultSimulator fs(c, faults);
  fs.run(session_chunks(c, 42)[0]);
  EXPECT_GT(fs.stats().gate_evals + fs.stats().good_gate_evals, 0u);
  fs.reset_stats();
  test::expect_counters_equal(fs.stats(), fault::SimStats{});
}

TEST(FaultSimDiff, DifferentialDoesLessWork) {
  // The whole point: on a session-style workload the differential engine
  // must evaluate far fewer gates than the full-sweep oracle.  (The acceptance
  // threshold of >= 2x is measured on the ISCAS-style bench circuits; random
  // circuits here just need to show a reduction.)
  const test::RandomCircuitSpec spec{8, 8, 160, 6, 21};
  const auto c = test::make_random_circuit(spec);
  const auto faults = fault::collapse(c).faults;
  util::Rng rng(3);
  const auto seq = test::random_sequence(c, rng, 64, 0.0);

  FaultSimulator diff(c, faults, make_config(1));
  FullSweepFaultSim full(c, faults);
  ASSERT_EQ(diff.run(seq), full.run(seq));

  const auto total = [](const fault::SimStats& s) {
    return s.gate_evals + s.good_gate_evals;
  };
  EXPECT_LT(total(diff.stats()), total(full.stats()));
}

TEST(FaultSimDiff, ScreenSkipsUnexcitedFaults) {
  // g = AND(a, b) stuck-at-1: while a = b = 1 the good value equals the
  // stuck value, nothing is excited and no fault effect is parked, so the
  // screen must skip every vector without a single faulty-machine gate
  // evaluation.  Dropping b to 0 excites the fault and detects it.
  netlist::CircuitBuilder builder;
  const auto a = builder.add_input("a");
  const auto b = builder.add_input("b");
  const auto g = builder.add_gate(netlist::GateType::kAnd, "g", {a, b});
  builder.mark_output(g);
  const auto c = std::move(builder).build("screen");

  const std::vector<fault::Fault> faults{{g, fault::kOutputPin, true}};
  FaultSimulator fs(c, faults, make_config(1));

  const sim::Sequence quiet(6, sim::Vector3{sim::V3::k1, sim::V3::k1});
  EXPECT_TRUE(fs.run(quiet).empty());
  EXPECT_EQ(fs.stats().group_vectors, 6u);
  EXPECT_EQ(fs.stats().group_vectors_skipped, 6u);
  EXPECT_EQ(fs.stats().gate_evals, 0u);

  const sim::Sequence excite(1, sim::Vector3{sim::V3::k1, sim::V3::k0});
  EXPECT_EQ(fs.run(excite).size(), 1u);
}

}  // namespace
