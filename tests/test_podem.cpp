#include <gtest/gtest.h>

#include "atpg/podem.h"
#include "gen/s27.h"
#include "netlist/builder.h"

namespace gatpg::atpg {
namespace {

using sim::V3;

TEST(Backtrace, ReachesPiThroughInverter) {
  // y = NOT(a): objective y=1 must land on a=0.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto y = b.add_gate(netlist::GateType::kNot, "y", {a});
  b.mark_output(y);
  const auto c = std::move(b).build("inv");
  FrameModel m(c, std::nullopt, 1);
  const auto r = backtrace(m, {0, y, V3::k1});
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->is_state);
  EXPECT_EQ(r->index, 0u);
  EXPECT_EQ(r->value, V3::k0);
}

TEST(Backtrace, ChoosesControllingPathForAnd) {
  // y = AND(a, b): y=0 needs only one input at 0.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto bb = b.add_input("b");
  const auto y = b.add_gate(netlist::GateType::kAnd, "y", {a, bb});
  b.mark_output(y);
  const auto c = std::move(b).build("and2");
  FrameModel m(c, std::nullopt, 1);
  const auto r = backtrace(m, {0, y, V3::k0});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, V3::k0);
}

TEST(Backtrace, FollowsXPathPastAssignedInputs) {
  // y = AND(a, b) with a already assigned 1: y=1 must target b.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto bb = b.add_input("b");
  const auto y = b.add_gate(netlist::GateType::kAnd, "y", {a, bb});
  b.mark_output(y);
  const auto c = std::move(b).build("and2b");
  FrameModel m(c, std::nullopt, 1);
  m.assign_pi(0, 0, V3::k1);
  const auto r = backtrace(m, {0, y, V3::k1});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->index, 1u);
  EXPECT_EQ(r->value, V3::k1);
}

TEST(Backtrace, CrossesDffIntoEarlierFrame) {
  // ff <- a; y = BUF(ff).  Objective on y in frame 1 must reach PI a in
  // frame 0.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto ff = b.add_dff("ff");
  b.set_dff_input(ff, b.add_gate(netlist::GateType::kBuf, "d", {a}));
  const auto y = b.add_gate(netlist::GateType::kBuf, "y", {ff});
  b.mark_output(y);
  const auto c = std::move(b).build("ffc");
  FrameModel m(c, std::nullopt, 2);
  m.extend();
  const auto r = backtrace(m, {1, y, V3::k1});
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->is_state);
  EXPECT_EQ(r->frame, 0u);
  EXPECT_EQ(r->value, V3::k1);
}

TEST(Backtrace, LandsOnPseudoStateAtFrameZero) {
  // y = BUF(ff) in frame 0: the only controlling input is the pseudo state.
  netlist::CircuitBuilder b;
  b.add_input("a");
  const auto ff = b.add_dff("ff");
  const auto y = b.add_gate(netlist::GateType::kBuf, "y", {ff});
  b.set_dff_input(ff, y);
  b.mark_output(y);
  const auto c = std::move(b).build("ffz");
  FrameModel m(c, std::nullopt, 1);
  const auto r = backtrace(m, {0, y, V3::k0});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->is_state);
  EXPECT_EQ(r->index, 0u);
  EXPECT_EQ(r->value, V3::k0);
}

TEST(Backtrace, FailsOnConstants) {
  netlist::CircuitBuilder b;
  b.add_input("a");
  const auto k = b.add_const(false, "k");
  const auto y = b.add_gate(netlist::GateType::kBuf, "y", {k});
  b.mark_output(y);
  const auto c = std::move(b).build("konst");
  FrameModel m(c, std::nullopt, 1);
  EXPECT_FALSE(backtrace(m, {0, y, V3::k1}).has_value());
}

TEST(Backtrace, XorTargetsParityConsistentValue) {
  // y = XOR(a, b) with a = 1: y=1 wants b=0.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto bb = b.add_input("b");
  const auto y = b.add_gate(netlist::GateType::kXor, "y", {a, bb});
  b.mark_output(y);
  const auto c = std::move(b).build("xor2");
  FrameModel m(c, std::nullopt, 1);
  m.assign_pi(0, 0, V3::k1);
  const auto r = backtrace(m, {0, y, V3::k1});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->index, 1u);
  EXPECT_EQ(r->value, V3::k0);
}

TEST(DecisionStack, PushAssignsAndImplies) {
  const auto c = gen::make_s27();
  FrameModel m(c, std::nullopt, 1);
  DecisionStack stack(m);
  stack.push({false, 0, 0, V3::k0});  // G0 = 0
  EXPECT_EQ(m.good(0, c.find("G0")), V3::k0);
  EXPECT_EQ(m.good(0, c.find("G14")), V3::k1);  // implied through NOT
  EXPECT_EQ(stack.depth(), 1u);
}

TEST(DecisionStack, BacktrackFlipsThenPops) {
  const auto c = gen::make_s27();
  FrameModel m(c, std::nullopt, 1);
  DecisionStack stack(m);
  SearchStats stats;
  stack.push({false, 0, 0, V3::k0});
  stack.push({false, 0, 1, V3::k1});
  // First backtrack: flips the newest decision.
  EXPECT_TRUE(stack.backtrack(stats));
  EXPECT_EQ(m.pi_value(0, 1), V3::k0);
  EXPECT_EQ(stack.depth(), 2u);
  EXPECT_EQ(stats.backtracks, 1);
  // Second: newest is exhausted, pops it, flips the older one.
  EXPECT_TRUE(stack.backtrack(stats));
  EXPECT_EQ(m.pi_value(0, 1), V3::kX);
  EXPECT_EQ(m.pi_value(0, 0), V3::k1);
  EXPECT_EQ(stack.depth(), 1u);
  // Third: everything exhausted.
  EXPECT_FALSE(stack.backtrack(stats));
  EXPECT_TRUE(stack.empty());
  EXPECT_EQ(m.pi_value(0, 0), V3::kX);
}

TEST(DecisionStack, BacktrackRestoresFrameWindow) {
  const auto c = gen::make_s27();
  FrameModel m(c, std::nullopt, 4);
  DecisionStack stack(m);
  SearchStats stats;
  stack.push({false, 0, 0, V3::k0});
  m.extend();
  m.extend();
  EXPECT_EQ(m.frame_count(), 3u);
  stack.backtrack(stats);  // flip the decision -> frames roll back
  EXPECT_EQ(m.frame_count(), 1u);
}

TEST(DecisionStack, UnwindAllClearsEverything) {
  const auto c = gen::make_s27();
  FrameModel m(c, std::nullopt, 2);
  DecisionStack stack(m);
  stack.push({false, 0, 2, V3::k1});
  stack.push({true, 0, 1, V3::k0});
  stack.unwind_all();
  EXPECT_TRUE(stack.empty());
  EXPECT_EQ(m.pi_value(0, 2), V3::kX);
  EXPECT_EQ(m.state_value(1), V3::kX);
}

}  // namespace
}  // namespace gatpg::atpg
