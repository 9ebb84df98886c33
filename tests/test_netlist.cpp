#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "gen/s27.h"
#include "helpers/random_circuit.h"
#include "netlist/bench_io.h"
#include "netlist/builder.h"
#include "netlist/depth.h"
#include "netlist/fanin_walk.h"

namespace gatpg::netlist {
namespace {

Circuit tiny() {
  // in0 ---AND--- out     with a DFF loop:  ff <- NOT(ff)
  CircuitBuilder b;
  const NodeId a = b.add_input("a");
  const NodeId bb = b.add_input("b");
  const NodeId ff = b.add_dff("ff");
  const NodeId g1 = b.add_gate(GateType::kAnd, "g1", {a, bb});
  const NodeId g2 = b.add_gate(GateType::kOr, "g2", {g1, ff});
  const NodeId n1 = b.add_gate(GateType::kNot, "n1", {ff});
  b.set_dff_input(ff, n1);
  b.mark_output(g2);
  return std::move(b).build("tiny");
}

TEST(Builder, BuildsValidCircuit) {
  const Circuit c = tiny();
  EXPECT_EQ(c.node_count(), 6u);
  EXPECT_EQ(c.primary_inputs().size(), 2u);
  EXPECT_EQ(c.primary_outputs().size(), 1u);
  EXPECT_EQ(c.flip_flops().size(), 1u);
  EXPECT_EQ(c.gate_count(), 3u);
  EXPECT_EQ(c.name(), "tiny");
}

TEST(Builder, FanoutsAreInverseOfFanins) {
  const Circuit c = tiny();
  for (NodeId n = 0; n < c.node_count(); ++n) {
    for (NodeId f : c.fanins(n)) {
      const auto outs = c.fanouts(f);
      EXPECT_NE(std::find(outs.begin(), outs.end(), n), outs.end());
    }
  }
}

TEST(Builder, TopoOrderRespectsDependencies) {
  const Circuit c = tiny();
  std::vector<int> position(c.node_count(), -1);
  int pos = 0;
  for (NodeId g : c.topo_order()) position[g] = pos++;
  for (NodeId g : c.topo_order()) {
    for (NodeId f : c.fanins(g)) {
      if (is_combinational(c.type(f))) {
        EXPECT_LT(position[f], position[g]);
      }
    }
  }
}

TEST(Builder, LevelsAreMonotone) {
  const Circuit c = tiny();
  for (NodeId g : c.topo_order()) {
    for (NodeId f : c.fanins(g)) {
      EXPECT_LT(c.level(f), c.level(g));
    }
  }
}

TEST(Builder, RejectsUnboundDffInput) {
  CircuitBuilder b;
  b.add_input("a");
  b.add_dff("ff");
  EXPECT_THROW(std::move(b).build("bad"), std::runtime_error);
}

TEST(Builder, RejectsCombinationalCycle) {
  CircuitBuilder b;
  const NodeId a = b.add_input("a");
  const NodeId ff = b.add_dff("ff");
  b.set_dff_input(ff, a);
  // g1 and g2 feed each other: we must construct via placeholder trickery.
  // add_gate requires existing fanins, so build the cycle through a DFF-free
  // path is impossible through the public API; instead check that DFFs do
  // break cycles (the tiny() loop builds fine).
  EXPECT_NO_THROW(tiny());
}

TEST(Builder, RejectsDuplicateNames) {
  CircuitBuilder b;
  b.add_input("x");
  b.add_input("x");
  EXPECT_THROW(std::move(b).build("dup"), std::runtime_error);
}

TEST(Builder, FindLooksUpByName) {
  const Circuit c = tiny();
  EXPECT_NE(c.find("g1"), kNoNode);
  EXPECT_EQ(c.type(c.find("ff")), GateType::kDff);
  EXPECT_EQ(c.find("nope"), kNoNode);
}

TEST(BenchIo, ParsesS27Profile) {
  const Circuit c = gen::make_s27();
  EXPECT_EQ(c.primary_inputs().size(), 4u);
  EXPECT_EQ(c.primary_outputs().size(), 1u);
  EXPECT_EQ(c.flip_flops().size(), 3u);
  EXPECT_EQ(c.gate_count(), 10u);
}

TEST(BenchIo, RoundTripsStructurally) {
  const Circuit c1 = gen::make_s27();
  const std::string text = write_bench(c1);
  const Circuit c2 = parse_bench_string(text, "s27rt");
  EXPECT_EQ(c1.node_count(), c2.node_count());
  EXPECT_EQ(c1.primary_inputs().size(), c2.primary_inputs().size());
  EXPECT_EQ(c1.flip_flops().size(), c2.flip_flops().size());
  EXPECT_EQ(c1.gate_count(), c2.gate_count());
  // Same named node -> same type and fanin names.
  for (NodeId n = 0; n < c1.node_count(); ++n) {
    const NodeId m = c2.find(c1.name(n));
    ASSERT_NE(m, kNoNode) << c1.name(n);
    EXPECT_EQ(c1.type(n), c2.type(m));
    ASSERT_EQ(c1.fanin_count(n), c2.fanin_count(m));
    for (std::size_t i = 0; i < c1.fanin_count(n); ++i) {
      EXPECT_EQ(c1.name(c1.fanins(n)[i]), c2.name(c2.fanins(m)[i]));
    }
  }
}

TEST(BenchIo, AcceptsOutOfOrderDefinitions) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
y = AND(u, v)
u = NOT(a)
v = BUF(u)
)";
  const Circuit c = parse_bench_string(text, "ooo");
  EXPECT_EQ(c.gate_count(), 3u);
}

TEST(BenchIo, RejectsUndefinedFanin) {
  EXPECT_THROW(parse_bench_string("INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n",
                                  "bad"),
               std::runtime_error);
}

TEST(BenchIo, RejectsCombinationalLoopInText) {
  const char* text = R"(
INPUT(a)
u = AND(a, v)
v = AND(a, u)
OUTPUT(u)
)";
  EXPECT_THROW(parse_bench_string(text, "loop"), std::runtime_error);
}

TEST(BenchIo, RejectsBadKeyword) {
  EXPECT_THROW(parse_bench_string("INPUT(a)\ny = FROB(a)\n", "bad"),
               std::runtime_error);
}

TEST(BenchIo, ParsesCommentsAndBlanks) {
  const char* text = "# header\nINPUT(a)\n\n  # indented comment\ny = NOT(a) # eol\nOUTPUT(y)\n";
  EXPECT_NO_THROW(parse_bench_string(text, "c"));
}

TEST(BenchIo, ConstantExtensionRoundTrips) {
  CircuitBuilder b;
  const NodeId a = b.add_input("a");
  const NodeId k = b.add_const(true, "k1");
  b.mark_output(b.add_gate(GateType::kAnd, "y", {a, k}));
  const Circuit c1 = std::move(b).build("cst");
  const Circuit c2 = parse_bench_string(write_bench(c1), "cst2");
  EXPECT_EQ(c2.type(c2.find("k1")), GateType::kConst1);
}

TEST(FaninWalk, PostOrderStopsAtFlipFlops) {
  const Circuit c = tiny();
  std::vector<char> mark(c.node_count(), 0);
  FaninStack stack;
  std::vector<NodeId> order;
  const auto walk = [&](NodeId root) {
    walk_fanin(
        c, root, stack, [&](NodeId n) { return !std::exchange(mark[n], 1); },
        [&](NodeId n) { order.push_back(n); });
  };
  walk(c.find("g2"));
  // Post-order over g2 = OR(AND(a, b), ff); the walk ends at ff, so n1
  // (behind the flip-flop) stays out.
  const std::vector<NodeId> expected = {c.find("a"), c.find("b"),
                                        c.find("g1"), c.find("ff"),
                                        c.find("g2")};
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(stack.empty());
  // Marked nodes are not entered again, and a flip-flop root is reported
  // without descending into its D input.
  walk(c.find("g1"));
  EXPECT_EQ(order, expected);
  std::fill(mark.begin(), mark.end(), 0);
  order.clear();
  walk(c.find("ff"));
  EXPECT_EQ(order, std::vector<NodeId>{c.find("ff")});
}

TEST(Depth, ZeroWithoutFlipFlops) {
  CircuitBuilder b;
  const NodeId a = b.add_input("a");
  b.mark_output(b.add_gate(GateType::kNot, "y", {a}));
  EXPECT_EQ(sequential_depth(std::move(b).build("comb")), 0u);
}

TEST(Depth, ChainOfFlipFlops) {
  // PI -> ff0 -> ff1 -> ff2: depth 3.
  CircuitBuilder b;
  const NodeId a = b.add_input("a");
  const NodeId f0 = b.add_dff("f0");
  const NodeId f1 = b.add_dff("f1");
  const NodeId f2 = b.add_dff("f2");
  b.set_dff_input(f0, b.add_gate(GateType::kBuf, "b0", {a}));
  b.set_dff_input(f1, b.add_gate(GateType::kBuf, "b1", {f0}));
  b.set_dff_input(f2, b.add_gate(GateType::kBuf, "b2", {f1}));
  b.mark_output(f2);
  EXPECT_EQ(sequential_depth(std::move(b).build("chain")), 3u);
}

TEST(Depth, DirectChainOfFlipFlops) {
  // PI -> f0 -> f1 -> f2 with no gate between the flip-flops: depth 3.
  CircuitBuilder b;
  const NodeId a = b.add_input("a");
  const NodeId f0 = b.add_dff("f0");
  const NodeId f1 = b.add_dff("f1");
  const NodeId f2 = b.add_dff("f2");
  b.set_dff_input(f0, a);
  b.set_dff_input(f1, f0);
  b.set_dff_input(f2, f1);
  b.mark_output(f2);
  EXPECT_EQ(sequential_depth(std::move(b).build("shift")), 3u);
}

TEST(Depth, SelfLoopWithPiPathIsShallow) {
  // ff <- ff XOR a : directly PI-fed despite the loop.
  CircuitBuilder b;
  const NodeId a = b.add_input("a");
  const NodeId ff = b.add_dff("ff");
  b.set_dff_input(ff, b.add_gate(GateType::kXor, "x", {ff, a}));
  b.mark_output(ff);
  EXPECT_EQ(sequential_depth(std::move(b).build("loop")), 1u);
}

TEST(Depth, S27MatchesKnownValue) {
  EXPECT_EQ(sequential_depth(gen::make_s27()), 1u);
}

TEST(Stats, ReportsProfile) {
  const auto s = stats_of(tiny());
  EXPECT_EQ(s.inputs, 2u);
  EXPECT_EQ(s.outputs, 1u);
  EXPECT_EQ(s.flip_flops, 1u);
  EXPECT_EQ(s.gates, 3u);
  EXPECT_GE(s.levels, 1u);
}

TEST(BenchIo, WriterIsIdempotentUpToLineOrder) {
  // write(parse(write(c))) contains exactly the same statements as
  // write(c); only gate emission order may differ (topological order is not
  // unique).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    test::RandomCircuitSpec spec;
    spec.seed = seed + 70;
    const Circuit c = test::make_random_circuit(spec);
    auto sorted_lines = [](const std::string& text) {
      std::vector<std::string> lines;
      std::istringstream in(text);
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#') lines.push_back(line);
      }
      std::sort(lines.begin(), lines.end());
      return lines;
    };
    const std::string once = write_bench(c);
    const std::string twice =
        write_bench(parse_bench_string(once, c.name()));
    EXPECT_EQ(sorted_lines(once), sorted_lines(twice)) << "seed " << seed;
  }
}

TEST(RandomCircuits, AlwaysValid) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    test::RandomCircuitSpec spec;
    spec.seed = seed;
    spec.num_gates = 20 + seed;
    EXPECT_NO_THROW(test::make_random_circuit(spec));
  }
}

}  // namespace
}  // namespace gatpg::netlist
