// Fault-model layer suite: per-model naming, universe generation and
// collapsing, identity digests, and the differential check of the transition
// fault simulator against the naive two-frame reference.
//
// The stuck-at half of the suite pins down that the fault-model axis is
// invisible to existing callers: collapse(c) and collapse(c, kStuckAt) are
// byte-identical on every registry circuit, and the s27 identity digest is
// frozen as a golden constant (the digest the session snapshots of all
// pre-existing stuck-at runs embed).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "gen/registry.h"
#include "gen/s27.h"
#include "helpers/full_sweep_faultsim.h"
#include "helpers/random_circuit.h"
#include "helpers/reference_sim.h"
#include "netlist/builder.h"

namespace gatpg::fault {
namespace {

/// a, b -> AND g (marked output).  Every input has a single fanout.
netlist::Circuit make_and2() {
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto bb = b.add_input("b");
  b.mark_output(b.add_gate(netlist::GateType::kAnd, "g", {a, bb}));
  return std::move(b).build("and2");
}

// ---------------------------------------------------------------------------
// Naming (satellite: fault reporting carries the model).

TEST(FaultModelNaming, StemSuffixesPerModel) {
  const auto c = make_and2();
  netlist::NodeId g = netlist::kNoNode;
  for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
    if (c.name(n) == "g") g = n;
  }
  ASSERT_NE(g, netlist::kNoNode);
  EXPECT_EQ(to_string(c, Fault{g, kOutputPin, false}), "g s-a-0");
  EXPECT_EQ(to_string(c, Fault{g, kOutputPin, true}), "g s-a-1");
  EXPECT_EQ(to_string(c, make_transition(g, kOutputPin, false)), "g str");
  EXPECT_EQ(to_string(c, make_transition(g, kOutputPin, true)), "g stf");
}

TEST(FaultModelNaming, BranchNamingCarriesDriverAndModel) {
  const auto c = make_and2();
  netlist::NodeId g = netlist::kNoNode;
  for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
    if (c.name(n) == "g") g = n;
  }
  ASSERT_NE(g, netlist::kNoNode);
  EXPECT_EQ(to_string(c, Fault{g, 0, true}), "g.in0(a) s-a-1");
  EXPECT_EQ(to_string(c, Fault{g, 1, false}), "g.in1(b) s-a-0");
  EXPECT_EQ(to_string(c, make_transition(g, 0, false)), "g.in0(a) str");
  EXPECT_EQ(to_string(c, make_transition(g, 1, true)), "g.in1(b) stf");
}

TEST(FaultModelNaming, TransitionRepresentationInvariant) {
  // stuck_at holds the launch (= forced) value: slow-to-rise launches from
  // 0, slow-to-fall from 1.
  const Fault str = make_transition(3, kOutputPin, false);
  EXPECT_EQ(str.model, FaultModel::kTransitionSlowToRise);
  EXPECT_FALSE(str.stuck_at);
  EXPECT_TRUE(str.is_transition());
  const Fault stf = make_transition(3, 1, true);
  EXPECT_EQ(stf.model, FaultModel::kTransitionSlowToFall);
  EXPECT_TRUE(stf.stuck_at);
  EXPECT_FALSE((Fault{3, kOutputPin, true}.is_transition()));
}

TEST(FaultModelNaming, UniverseNamesRoundTrip) {
  EXPECT_STREQ(universe_name(FaultUniverse::kStuckAt), "stuck_at");
  EXPECT_STREQ(universe_name(FaultUniverse::kTransition), "transition");
  FaultUniverse u = FaultUniverse::kStuckAt;
  EXPECT_TRUE(parse_universe("transition", &u));
  EXPECT_EQ(u, FaultUniverse::kTransition);
  EXPECT_TRUE(parse_universe("stuck_at", &u));
  EXPECT_EQ(u, FaultUniverse::kStuckAt);
  u = FaultUniverse::kTransition;
  EXPECT_FALSE(parse_universe("bogus", &u));
  EXPECT_EQ(u, FaultUniverse::kTransition) << "failed parse must not write";
}

// ---------------------------------------------------------------------------
// Universe generation: both models populate the same pin sites.

TEST(FaultModelUniverse, SameSitesBothModels) {
  const auto c = gen::make_s27();
  const auto sa = all_pin_faults(c, FaultUniverse::kStuckAt);
  const auto tr = all_pin_faults(c, FaultUniverse::kTransition);
  ASSERT_EQ(sa.size(), tr.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].node, tr[i].node);
    EXPECT_EQ(sa[i].pin, tr[i].pin);
    EXPECT_EQ(sa[i].model, FaultModel::kStuckAt);
    EXPECT_TRUE(tr[i].is_transition());
    // Representation invariant on every generated transition fault.
    EXPECT_EQ(tr[i].stuck_at,
              tr[i].model == FaultModel::kTransitionSlowToFall);
  }
}

// ---------------------------------------------------------------------------
// Collapsing (satellite: equivalence classes per model).

TEST(TransitionCollapse, BufChainMergesSamePolarity) {
  // a -> BUF g: branch merges with its single-fanout stem, BUF input merges
  // with the same-polarity output => one class per polarity (size 3 each).
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  b.mark_output(b.add_gate(netlist::GateType::kBuf, "g", {a}));
  const auto c = std::move(b).build("bufchain");
  const FaultList list = collapse(c, FaultUniverse::kTransition);
  EXPECT_EQ(list.size(), 2u);
  unsigned total = 0;
  for (unsigned s : list.class_sizes) total += s;
  EXPECT_EQ(total, 6u);
}

TEST(TransitionCollapse, NoPolarityFlipThroughInverter) {
  // a -> NOT n: stuck-at collapses all six faults into two classes; the
  // transition rules keep the inverter's own polarities separate (only the
  // branch/stem merge applies), so four classes remain.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  b.mark_output(b.add_gate(netlist::GateType::kNot, "n", {a}));
  const auto c = std::move(b).build("invchain1");
  EXPECT_EQ(collapse(c, FaultUniverse::kStuckAt).size(), 2u);
  EXPECT_EQ(collapse(c, FaultUniverse::kTransition).size(), 4u);
}

TEST(TransitionCollapse, NoControllingValueMergeThroughAnd) {
  // The classic AND collapse (10 -> 4) relies on the controlling-value rule,
  // which is unsound for launch conditions; transition keeps the gate's own
  // str/stf apart from its inputs' and only merges branches into their
  // single-fanout stems (10 -> 6).
  const auto c = make_and2();
  EXPECT_EQ(collapse(c, FaultUniverse::kStuckAt).size(), 4u);
  const FaultList tr = collapse(c, FaultUniverse::kTransition);
  EXPECT_EQ(tr.size(), 6u);
  unsigned total = 0;
  for (unsigned s : tr.class_sizes) total += s;
  EXPECT_EQ(total, 10u);
}

TEST(Collapse, StuckAtByteIdenticalWithAndWithoutModelAxis) {
  // The refactor's prime directive: the default-universe collapse is the
  // same object, fault for fault, as the explicit stuck-at collapse on every
  // registry circuit — and so is its snapshot identity digest.
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE("circuit " + name);
    const netlist::Circuit c = gen::make_circuit(name);
    const FaultList legacy = collapse(c);
    const FaultList modeled = collapse(c, FaultUniverse::kStuckAt);
    EXPECT_EQ(legacy.faults, modeled.faults);
    EXPECT_EQ(legacy.class_sizes, modeled.class_sizes);
    EXPECT_EQ(identity_digest(legacy), identity_digest(modeled));
  }
}

TEST(Collapse, S27GoldenIdentityDigest) {
  // Frozen pre-refactor value: any change here invalidates every existing
  // stuck-at session snapshot (resume checks this digest) and must be a
  // deliberate format decision, not a side effect.
  const FaultList sa = collapse(gen::make_s27());
  EXPECT_EQ(sa.size(), 32u);
  EXPECT_EQ(identity_digest(sa), 0xf4849896e89ec8d6ULL);
  EXPECT_EQ(collapse(gen::make_s27(), FaultUniverse::kTransition).size(),
            52u);
}

TEST(Collapse, ModelsNeverShareADigest) {
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE("circuit " + name);
    const netlist::Circuit c = gen::make_circuit(name);
    const FaultList sa = collapse(c, FaultUniverse::kStuckAt);
    const FaultList tr = collapse(c, FaultUniverse::kTransition);
    EXPECT_NE(identity_digest(sa), identity_digest(tr));
    // Weaker transition collapsing never produces fewer representatives,
    // and both collapses account for their whole universe.
    EXPECT_GE(tr.size(), sa.size());
    unsigned sa_total = 0, tr_total = 0;
    for (unsigned s : sa.class_sizes) sa_total += s;
    for (unsigned s : tr.class_sizes) tr_total += s;
    EXPECT_EQ(sa_total, all_pin_faults(c, FaultUniverse::kStuckAt).size());
    EXPECT_EQ(tr_total, all_pin_faults(c, FaultUniverse::kTransition).size());
  }
}

// Soundness of the two transition merge rules, checked against the naive
// reference: class members must detect together on random stimuli.
class TransitionCollapseEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransitionCollapseEquivalence, ClassMembersDetectTogether) {
  test::RandomCircuitSpec spec;
  spec.seed = GetParam() + 90;
  spec.num_gates = 15;
  spec.num_ffs = 2;
  const auto c = test::make_random_circuit(spec);
  util::Rng rng(GetParam() * 31);
  const auto seq = test::random_sequence(c, rng, 6);

  // Fanout counts, to identify single-fanout drivers.
  std::vector<unsigned> fanouts(c.node_count(), 0);
  for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
    for (netlist::NodeId f : c.fanins(n)) ++fanouts[f];
  }

  for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
    // Rule 1: BUF input <=> same-polarity output.
    if (c.type(n) == netlist::GateType::kBuf) {
      for (const bool stf : {false, true}) {
        EXPECT_EQ(test::reference_detects(c, make_transition(n, 0, stf), seq),
                  test::reference_detects(
                      c, make_transition(n, kOutputPin, stf), seq))
            << to_string(c, make_transition(n, 0, stf));
      }
    }
    // Rule 2: branch <=> stem when the driver has a single fanout.
    for (std::size_t p = 0; p < c.fanin_count(n); ++p) {
      const netlist::NodeId d = c.fanins(n)[p];
      if (fanouts[d] != 1 || !netlist::is_combinational(c.type(d))) continue;
      for (const bool stf : {false, true}) {
        EXPECT_EQ(
            test::reference_detects(
                c, make_transition(n, static_cast<int>(p), stf), seq),
            test::reference_detects(c, make_transition(d, kOutputPin, stf),
                                    seq))
            << to_string(c, make_transition(n, static_cast<int>(p), stf));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, TransitionCollapseEquivalence,
                         ::testing::Range<std::uint64_t>(1, 7));

// ---------------------------------------------------------------------------
// The transition fault simulator vs the naive reference, across thread
// counts, with persistent state over multiple run()s.  The full-sweep oracle
// that FaultSimDiff checks the simulator against is held to the same
// reference here.

class TransitionSimEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransitionSimEquivalence, MatchesTwoFrameReference) {
  test::RandomCircuitSpec spec;
  spec.seed = GetParam() + 500;
  spec.num_gates = 30 + (GetParam() % 17);
  spec.num_ffs = 2 + (GetParam() % 4);
  const auto c = test::make_random_circuit(spec);
  const auto faults = collapse(c, FaultUniverse::kTransition).faults;
  util::Rng rng(GetParam() * 23);
  const auto seq1 = test::random_sequence(c, rng, 7, 0.1);
  const auto seq2 = test::random_sequence(c, rng, 7, 0.1);
  sim::Sequence all(seq1);
  all.insert(all.end(), seq2.begin(), seq2.end());

  std::vector<bool> expected(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    expected[i] = test::reference_detects(c, faults[i], all);
  }

  const auto expect_reference = [&](const std::vector<char>& detected) {
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(static_cast<bool>(detected[i]), expected[i])
          << to_string(c, faults[i]) << " seed " << GetParam();
    }
  };
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    FaultSimConfig cfg;
    cfg.parallel.threads = threads;
    FaultSimulator fs(c, faults, cfg);
    fs.run(seq1);
    fs.run(seq2);
    expect_reference(fs.detected());
  }
  SCOPED_TRACE("full-sweep oracle");
  test::FullSweepFaultSim oracle(c, faults);
  oracle.run(seq1);
  oracle.run(seq2);
  expect_reference(oracle.detected());
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, TransitionSimEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(TransitionSim, LaunchPrevTracksGoodMachine) {
  // launch_prev(i) is exactly the good machine's settled value of fault i's
  // launch line in the last frame simulated — the anchor the next run()
  // frame's activation reads.
  const auto c = gen::make_s27();
  const auto faults = collapse(c, FaultUniverse::kTransition).faults;
  util::Rng rng(41);
  const auto seq = test::random_sequence(c, rng, 6, 0.2);
  FaultSimulator fs(c, faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(fs.launch_prev(i), sim::V3::kX) << "power-up anchor";
  }
  fs.run(seq);

  test::ReferenceSimulator good(c);
  sim::V3 last = sim::V3::kX;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = faults[i];
    const netlist::NodeId launch_line =
        f.pin == kOutputPin ? f.node
                            : c.fanins(f.node)[static_cast<std::size_t>(f.pin)];
    test::ReferenceSimulator ref(c);
    for (const auto& v : seq) {
      ref.apply(v);
      last = ref.value(launch_line);
      ref.clock();
    }
    EXPECT_EQ(fs.launch_prev(i), last) << to_string(c, f);
  }
}

TEST(TransitionSim, WhatIfPathsAgreeWithCommit) {
  // would_detect (live session), would_detect_from (the epoch-snapshot path
  // the speculative lanes call, fed launch_prev()), and an actual committing
  // run() must all agree mid-session.
  const auto c = gen::make_s27();
  const auto faults = collapse(c, FaultUniverse::kTransition).faults;
  FaultSimulator fs(c, faults);
  util::Rng rng(43);
  fs.run(test::random_sequence(c, rng, 4));

  const auto probe = test::random_sequence(c, rng, 8);
  std::vector<bool> predicted(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (fs.detected()[i]) {
      predicted[i] = true;
      continue;
    }
    predicted[i] = fs.would_detect(i, probe);
    EXPECT_EQ(predicted[i],
              FaultSimulator::would_detect_from(
                  c, fs.good_machine(), fs.fault_state(i), faults[i], probe,
                  fs.launch_prev(i)))
        << to_string(c, faults[i]);
  }
  fs.run(probe);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(static_cast<bool>(fs.detected()[i]), predicted[i])
        << to_string(c, faults[i]);
  }
}

TEST(TransitionSim, PowerUpFrameCannotLaunch) {
  // A transition fault is inactive in frame 0: a single-vector sequence
  // never detects anything (the launch anchor is X), while the matching
  // stuck-at fault may well be detected.
  const auto c = gen::make_s27();
  const auto faults = collapse(c, FaultUniverse::kTransition).faults;
  util::Rng rng(47);
  for (int trial = 0; trial < 8; ++trial) {
    const sim::Sequence one = {test::random_vector(c, rng)};
    for (const Fault& f : faults) {
      EXPECT_FALSE(FaultSimulator::detects(c, f, one)) << to_string(c, f);
      EXPECT_FALSE(test::reference_detects(c, f, one)) << to_string(c, f);
    }
  }
}

}  // namespace
}  // namespace gatpg::fault
