#include <gtest/gtest.h>

#include "atpg/frame_model.h"
#include "gen/s27.h"
#include "helpers/random_circuit.h"
#include "helpers/reference_sim.h"

namespace gatpg::atpg {
namespace {

using fault::Fault;
using sim::V3;

TEST(FrameModel, StartsWithOneFrameAllX) {
  const auto c = gen::make_s27();
  FrameModel m(c, std::nullopt, 4);
  EXPECT_EQ(m.frame_count(), 1u);
  for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
    if (c.type(n) == netlist::GateType::kConst0) {
      EXPECT_EQ(m.good(0, n), V3::k0);
    } else if (c.type(n) == netlist::GateType::kConst1) {
      EXPECT_EQ(m.good(0, n), V3::k1);
    } else {
      EXPECT_EQ(m.good(0, n), V3::kX) << c.name(n);
    }
  }
}

TEST(FrameModel, ExtendStopsAtCap) {
  const auto c = gen::make_s27();
  FrameModel m(c, std::nullopt, 3);
  EXPECT_TRUE(m.extend());
  EXPECT_TRUE(m.extend());
  EXPECT_EQ(m.frame_count(), 3u);
  EXPECT_FALSE(m.extend());
}

TEST(FrameModel, GoodPlaneMatchesReferenceSimulation) {
  const auto c = gen::make_s27();
  FrameModel m(c, std::nullopt, 3);
  m.extend();
  m.extend();
  util::Rng rng(3);
  // Assign all PIs in all frames, then compare frame by frame with a
  // reference run starting from the all-X state.
  std::vector<sim::Vector3> vectors(3);
  for (unsigned t = 0; t < 3; ++t) {
    vectors[t] = test::random_vector(c, rng);
    for (std::size_t i = 0; i < vectors[t].size(); ++i) {
      m.assign_pi(t, i, vectors[t][i]);
    }
  }
  test::ReferenceSimulator ref(c);
  for (unsigned t = 0; t < 3; ++t) {
    ref.apply(vectors[t]);
    for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
      EXPECT_EQ(m.good(t, n), ref.value(n)) << "frame " << t << " " << c.name(n);
    }
    ref.clock();
  }
}

TEST(FrameModel, StateAssignmentSeedsFrameZero) {
  const auto c = gen::make_s27();
  FrameModel m(c, std::nullopt, 2);
  m.assign_state(1, V3::k1);
  EXPECT_EQ(m.good(0, c.flip_flops()[1]), V3::k1);
  m.clear_state(1);
  EXPECT_EQ(m.good(0, c.flip_flops()[1]), V3::kX);
}

TEST(FrameModel, FaultInjectionCreatesD) {
  const auto c = gen::make_s27();
  // G17 = NOT(G11) is the PO; stem s-a-0 on G17.
  const Fault f{c.find("G17"), fault::kOutputPin, false};
  FrameModel m(c, f, 2);
  // Drive G11 to 0 so good(G17) = 1 while faulty is stuck 0.
  // G11 = NOR(G5, G9); set state G5=1 -> G11=0 -> G17 good = 1.
  m.assign_state(0, V3::k1);  // G5 is the first flip-flop
  EXPECT_EQ(m.good(0, c.find("G17")), V3::k1);
  EXPECT_EQ(m.faulty(0, c.find("G17")), V3::k0);
  EXPECT_TRUE(m.composite(0, c.find("G17")).is_d());
  EXPECT_TRUE(m.po_has_d());
}

TEST(FrameModel, BranchFaultOnlyAffectsOneBranch) {
  // a fans out to g1 = BUF(a) and g2 = BUF(a); branch fault on g1's input.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto g1 = b.add_gate(netlist::GateType::kBuf, "g1", {a});
  const auto g2 = b.add_gate(netlist::GateType::kBuf, "g2", {a});
  b.mark_output(g1);
  b.mark_output(g2);
  const auto c = std::move(b).build("branch");
  const Fault f{g1, 0, true};  // g1 input s-a-1
  FrameModel m(c, f, 1);
  m.assign_pi(0, 0, V3::k0);
  EXPECT_EQ(m.faulty(0, g1), V3::k1) << "faulted branch";
  EXPECT_EQ(m.faulty(0, g2), V3::k0) << "other branch must stay clean";
  EXPECT_EQ(m.good(0, g1), V3::k0);
}

TEST(FrameModel, DffPinFaultLatchesStuckValue) {
  const auto c = gen::make_s27();
  const auto ff = c.flip_flops()[0];
  const Fault f{ff, 0, true};  // D input s-a-1
  FrameModel m(c, f, 2);
  m.extend();
  // Whatever the D cone computes, the faulty machine latches 1 into frame 1.
  EXPECT_EQ(m.faulty(1, ff), V3::k1);
}

TEST(FrameModel, FrameLinkingCarriesState) {
  const auto c = gen::make_s27();
  FrameModel m(c, std::nullopt, 2);
  m.extend();
  util::Rng rng(9);
  const auto v = test::random_vector(c, rng);
  for (std::size_t i = 0; i < v.size(); ++i) m.assign_pi(0, i, v[i]);
  for (netlist::NodeId ff : c.flip_flops()) {
    EXPECT_EQ(m.good(1, ff), m.good(0, c.fanins(ff)[0])) << c.name(ff);
  }
}

TEST(FrameModel, DFrontierTracksFaultEffects) {
  const auto c = gen::make_s27();
  // An internal fault with everything X: no D anywhere -> empty frontier.
  const Fault f{c.find("G10"), fault::kOutputPin, true};
  FrameModel m(c, f, 2);
  EXPECT_FALSE(m.po_has_d());
  // Excite: G10 = NOR(G14, G11) must be 0 in the good machine; set
  // G0 = 0 -> G14 = 1 -> G10 good = 0, faulty = 1 (stuck).  The frontier
  // then contains G10's fanout consumers... G10 feeds only DFF G5, so the
  // D sits on a flip-flop input instead.
  m.assign_pi(0, 0, V3::k0);
  EXPECT_TRUE(m.composite(0, c.find("G10")).is_d());
  EXPECT_TRUE(m.d_reaches_ff_input(0));
}

TEST(FrameModel, ExtractVectorsPreservesAssignments) {
  const auto c = gen::make_s27();
  FrameModel m(c, std::nullopt, 2);
  m.extend();
  m.assign_pi(0, 2, V3::k1);
  m.assign_pi(1, 0, V3::k0);
  m.assign_state(2, V3::k0);
  const auto seq = m.extract_vectors();
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[0][2], V3::k1);
  EXPECT_EQ(seq[0][0], V3::kX);
  EXPECT_EQ(seq[1][0], V3::k0);
  const auto state = m.extract_state();
  EXPECT_EQ(state[2], V3::k0);
  EXPECT_EQ(state[0], V3::kX);
}

}  // namespace
}  // namespace gatpg::atpg
