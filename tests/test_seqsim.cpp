#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "fault/faultlist.h"
#include "gen/s27.h"
#include "helpers/random_circuit.h"
#include "helpers/reference_sim.h"
#include "sim/seqsim.h"

namespace gatpg::sim {
namespace {

using test::RandomCircuitSpec;
using test::ReferenceSimulator;

TEST(SequenceSimulator, ConstantsHoldTheirValue) {
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto k0 = b.add_const(false, "k0");
  const auto k1 = b.add_const(true, "k1");
  b.mark_output(b.add_gate(netlist::GateType::kAnd, "y", {a, k1}));
  b.mark_output(b.add_gate(netlist::GateType::kOr, "z", {a, k0}));
  const auto c = std::move(b).build("consts");
  SequenceSimulator s(c);
  s.apply_vector({V3::k1});
  EXPECT_EQ(s.scalar_value(c.find("y")), V3::k1);
  EXPECT_EQ(s.scalar_value(c.find("z")), V3::k1);
  s.apply_vector({V3::k0});
  EXPECT_EQ(s.scalar_value(c.find("y")), V3::k0);
  EXPECT_EQ(s.scalar_value(c.find("z")), V3::k0);
}

TEST(SequenceSimulator, PowerUpStateIsUnknown) {
  const auto c = gen::make_s27();
  SequenceSimulator s(c);
  for (V3 v : s.state()) EXPECT_EQ(v, V3::kX);
}

TEST(SequenceSimulator, SetStateRoundTrips) {
  const auto c = gen::make_s27();
  SequenceSimulator s(c);
  const State3 st{V3::k1, V3::k0, V3::kX};
  s.set_state(st);
  EXPECT_EQ(s.state(), st);
  EXPECT_EQ(s.state(63), st);  // broadcast across slots
}

TEST(SequenceSimulator, SetStateRejectsWrongArity) {
  const auto c = gen::make_s27();
  SequenceSimulator s(c);
  EXPECT_THROW(s.set_state(State3{V3::k1}), std::invalid_argument);
}

TEST(SequenceSimulator, ApplyRejectsWrongArity) {
  const auto c = gen::make_s27();
  SequenceSimulator s(c);
  EXPECT_THROW(s.apply_vector({V3::k1}), std::invalid_argument);
}

// The central simulator property: event-driven bit-parallel simulation
// agrees with the naive scalar reference on random circuits and sequences,
// including X values.
class SimEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimEquivalence, MatchesReferenceOverSequences) {
  RandomCircuitSpec spec;
  spec.seed = GetParam();
  spec.num_gates = 40 + (GetParam() % 37);
  spec.num_ffs = 2 + (GetParam() % 5);
  const auto c = test::make_random_circuit(spec);

  util::Rng rng(GetParam() * 77 + 1);
  const auto seq = test::random_sequence(c, rng, 12, /*x_prob=*/0.2);

  SequenceSimulator dut(c);
  ReferenceSimulator ref(c);
  for (const auto& v : seq) {
    dut.apply_vector(v);
    ref.apply(v);
    for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
      ASSERT_EQ(dut.scalar_value(n), ref.value(n))
          << "node " << c.name(n) << " seed " << GetParam();
    }
    dut.clock();
    ref.clock();
    ASSERT_EQ(dut.state(), ref.state());
  }
}

TEST_P(SimEquivalence, PackedSlotsAreIndependent) {
  RandomCircuitSpec spec;
  spec.seed = GetParam() + 1000;
  const auto c = test::make_random_circuit(spec);
  util::Rng rng(GetParam() * 13 + 5);

  // 64 different scalar sequences packed together must equal 64 scalar runs.
  const std::size_t len = 6;
  std::vector<sim::Sequence> scalar_seqs(64);
  for (auto& s : scalar_seqs) s = test::random_sequence(c, rng, len, 0.1);

  SequenceSimulator packed(c);
  std::vector<ReferenceSimulator> refs(64, ReferenceSimulator(c));
  const std::size_t npi = c.primary_inputs().size();
  for (std::size_t t = 0; t < len; ++t) {
    std::vector<PackedV3> words(npi, PackedV3::all_x());
    for (unsigned slot = 0; slot < 64; ++slot) {
      for (std::size_t i = 0; i < npi; ++i) {
        words[i].set(slot, scalar_seqs[slot][t][i]);
      }
    }
    packed.apply_packed(words);
    for (unsigned slot = 0; slot < 64; ++slot) {
      refs[slot].apply(scalar_seqs[slot][t]);
    }
    for (unsigned slot : {0u, 13u, 63u}) {
      for (netlist::NodeId po : c.primary_outputs()) {
        ASSERT_EQ(packed.scalar_value(po, slot), refs[slot].value(po));
      }
    }
    packed.clock();
    for (auto& r : refs) r.clock();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, SimEquivalence,
                         ::testing::Range<std::uint64_t>(1, 16));

// Fault-injection overrides agree with the reference simulator's fault
// model for stem and branch faults.
class InjectionEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InjectionEquivalence, OverridesModelStuckAtFaults) {
  RandomCircuitSpec spec;
  spec.seed = GetParam() + 500;
  const auto c = test::make_random_circuit(spec);
  util::Rng rng(GetParam() * 31 + 7);
  const auto seq = test::random_sequence(c, rng, 8);

  const auto faults = fault::all_pin_faults(c);
  // A deterministic sample of faults per circuit.
  for (std::size_t k = 0; k < faults.size(); k += 7) {
    const fault::Fault f = faults[k];
    SequenceSimulator dut(c);
    if (f.pin == fault::kOutputPin) {
      dut.add_output_override(f.node, f.stuck_at, ~0ULL);
    } else {
      dut.add_input_override(f.node, static_cast<unsigned>(f.pin),
                             f.stuck_at, ~0ULL);
    }
    ReferenceSimulator ref(c, f);
    for (const auto& v : seq) {
      dut.apply_vector(v);
      ref.apply(v);
      for (netlist::NodeId po : c.primary_outputs()) {
        ASSERT_EQ(dut.scalar_value(po), ref.value(po))
            << fault::to_string(c, f);
      }
      dut.clock();
      ref.clock();
      ASSERT_EQ(dut.state(), ref.state()) << fault::to_string(c, f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, InjectionEquivalence,
                         ::testing::Range<std::uint64_t>(1, 11));

// sweep_packed() + latch() is the GA's stepping: one levelized sweep per
// frame and a clock edge without the settle drain.  It must agree slot for
// slot with event-driven apply_packed() + clock(), under per-slot output and
// input-pin overrides (gate pins, primary inputs, flip-flop D and Q) and
// with the transition-fault activity protocol: a fresh latch mask before
// every edge, the same mask as current-frame activity after it.  A third
// machine steps with apply_packed() + latch(): after a bare latch the next
// apply must re-evaluate everything, not trace events from stale values.
class SweepLatchEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SweepLatchEquivalence, MatchesApplyPackedAndClock) {
  RandomCircuitSpec spec;
  spec.seed = GetParam() + 2000;
  spec.num_gates = 30 + (GetParam() % 23);
  spec.num_ffs = 2 + (GetParam() % 4);
  const auto c = test::make_random_circuit(spec);
  util::Rng rng(GetParam() * 101 + 3);

  // A word with ~25% X slots and random defined values elsewhere.
  auto random_word = [&] {
    const std::uint64_t x = rng() & rng();
    const std::uint64_t v = rng();
    return PackedV3{v & ~x, ~v & ~x};
  };

  for (const bool gated : {false, true}) {
    SequenceSimulator ref(c);
    SequenceSimulator dut(c);
    SequenceSimulator mixed(c);
    auto all = [&](auto&& op) {
      op(ref);
      op(dut);
      op(mixed);
    };
    if (gated) {
      all([](SequenceSimulator& s) {
        s.set_override_activity(0);
        s.set_latch_override_activity(0);
      });
    }
    const auto pis = c.primary_inputs();
    const auto ffs = c.flip_flops();
    std::vector<std::uint32_t> all_ffs(ffs.size());
    std::iota(all_ffs.begin(), all_ffs.end(), 0u);
    const auto topo = c.topo_order();
    const netlist::NodeId gate = topo[rng.below(topo.size())];
    const netlist::NodeId pin_gate = topo[rng.below(topo.size())];
    const netlist::NodeId pi = pis[rng.below(pis.size())];
    const netlist::NodeId ff = ffs[rng.below(ffs.size())];
    std::array<std::uint64_t, 5> slots;
    for (auto& m : slots) m = rng();
    all([&](SequenceSimulator& s) {
      s.add_output_override(gate, true, slots[0]);
      s.add_output_override(pi, false, slots[1]);
      s.add_output_override(ff, true, slots[2]);
      s.add_input_override(ff, 0, false, slots[3]);
      s.add_input_override(pin_gate, 0, true, slots[4]);
    });
    all([](SequenceSimulator& s) { s.reset(); });

    for (unsigned t = 0; t < 10; ++t) {
      std::vector<PackedV3> words(pis.size());
      for (auto& w : words) w = random_word();
      ref.apply_packed(words);
      dut.sweep_packed(words);
      mixed.apply_packed(words);
      for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
        ASSERT_EQ(dut.value(n), ref.value(n))
            << "node " << c.name(n) << " frame " << t << " gated " << gated;
        ASSERT_EQ(mixed.value(n), ref.value(n))
            << "node " << c.name(n) << " frame " << t << " gated " << gated;
      }
      const std::uint64_t next_act = gated ? rng() : ~0ULL;
      all([&](SequenceSimulator& s) {
        s.set_latch_override_activity(next_act);
      });
      ref.clock();
      dut.latch(all_ffs);
      mixed.latch(all_ffs);
      all([&](SequenceSimulator& s) { s.set_override_activity(next_act); });
      for (const netlist::NodeId q : ffs) {
        ASSERT_EQ(dut.value(q), ref.value(q))
            << "flip-flop " << c.name(q) << " frame " << t;
        ASSERT_EQ(mixed.value(q), ref.value(q))
            << "flip-flop " << c.name(q) << " frame " << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, SweepLatchEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(SequenceSimulator, ClearOverridesRestoresGoodBehaviour) {
  const auto c = gen::make_s27();
  SequenceSimulator clean(c);
  SequenceSimulator dirty(c);
  dirty.add_output_override(c.find("G10"), true, ~0ULL);
  dirty.clear_overrides();
  dirty.reset();
  const Vector3 v{V3::k1, V3::k0, V3::k1, V3::k0};
  clean.apply_vector(v);
  dirty.apply_vector(v);
  for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
    EXPECT_EQ(clean.scalar_value(n), dirty.scalar_value(n));
  }
}

TEST(SequenceSimulator, StateMatchSemantics) {
  const auto c = gen::make_s27();
  SequenceSimulator s(c);
  s.set_state({V3::k1, V3::k0, V3::k1});
  // X in desired always matches; one mismatch clears the slot.
  EXPECT_EQ(s.state_match_mask({V3::kX, V3::kX, V3::kX}), ~0ULL);
  EXPECT_EQ(s.state_match_mask({V3::k1, V3::k0, V3::k1}), ~0ULL);
  EXPECT_EQ(s.state_match_mask({V3::k0, V3::k0, V3::k1}), 0ULL);
  EXPECT_EQ(s.state_match_mask({V3::k1, V3::kX, V3::kX}), ~0ULL);
  EXPECT_EQ(s.state_match_mask({V3::k0, V3::kX, V3::kX}), 0ULL);
}

TEST(SequenceSimulator, DffOutputStemFaultForcesState) {
  const auto c = gen::make_s27();
  SequenceSimulator s(c);
  const auto ff = c.flip_flops()[0];
  s.add_output_override(ff, true, ~0ULL);
  s.reset();
  EXPECT_EQ(s.scalar_value(ff), V3::k1);  // forced even at power-up
  s.set_state({V3::k0, V3::k0, V3::k0});
  EXPECT_EQ(s.scalar_value(ff), V3::k1);
}

}  // namespace
}  // namespace gatpg::sim
