// Fast unit tests for the small leaf utilities: gate-type predicates,
// composite values, schedule scaling, and circuit-metadata helpers.
#include <gtest/gtest.h>

#include "atpg/val5.h"
#include "gen/s27.h"
#include "fault/fault.h"
#include "netlist/gate.h"
#include "session/pass.h"

namespace gatpg {
namespace {

using netlist::GateType;
using sim::V3;

TEST(GateTraits, ControllingValues) {
  EXPECT_TRUE(netlist::has_controlling_value(GateType::kAnd));
  EXPECT_TRUE(netlist::has_controlling_value(GateType::kNor));
  EXPECT_FALSE(netlist::has_controlling_value(GateType::kXor));
  EXPECT_FALSE(netlist::has_controlling_value(GateType::kNot));
  EXPECT_FALSE(netlist::controlling_value(GateType::kAnd));   // 0 controls
  EXPECT_FALSE(netlist::controlling_value(GateType::kNand));
  EXPECT_TRUE(netlist::controlling_value(GateType::kOr));     // 1 controls
  EXPECT_TRUE(netlist::controlling_value(GateType::kNor));
}

TEST(GateTraits, InversionParity) {
  EXPECT_TRUE(netlist::inverts(GateType::kNand));
  EXPECT_TRUE(netlist::inverts(GateType::kNor));
  EXPECT_TRUE(netlist::inverts(GateType::kNot));
  EXPECT_TRUE(netlist::inverts(GateType::kXnor));
  EXPECT_FALSE(netlist::inverts(GateType::kAnd));
  EXPECT_FALSE(netlist::inverts(GateType::kBuf));
  EXPECT_FALSE(netlist::inverts(GateType::kXor));
}

TEST(GateTraits, Categories) {
  EXPECT_TRUE(netlist::is_source(GateType::kInput));
  EXPECT_TRUE(netlist::is_source(GateType::kConst0));
  EXPECT_FALSE(netlist::is_source(GateType::kDff));
  EXPECT_TRUE(netlist::is_combinational(GateType::kXnor));
  EXPECT_FALSE(netlist::is_combinational(GateType::kDff));
  EXPECT_FALSE(netlist::is_combinational(GateType::kInput));
}

TEST(GateTraits, NamesMatchBenchKeywords) {
  EXPECT_EQ(netlist::gate_type_name(GateType::kNand), "NAND");
  EXPECT_EQ(netlist::gate_type_name(GateType::kDff), "DFF");
  EXPECT_EQ(netlist::gate_type_name(GateType::kBuf), "BUF");
}

TEST(Composite, DDetection) {
  atpg::Composite d{V3::k1, V3::k0};
  atpg::Composite dbar{V3::k0, V3::k1};
  atpg::Composite one{V3::k1, V3::k1};
  atpg::Composite half{V3::k1, V3::kX};
  EXPECT_TRUE(d.is_d());
  EXPECT_TRUE(dbar.is_d());
  EXPECT_FALSE(one.is_d());
  EXPECT_FALSE(half.is_d());
  EXPECT_TRUE(half.any_x());
  EXPECT_FALSE(one.any_x());
  EXPECT_TRUE(d.both_binary());
  EXPECT_FALSE(half.both_binary());
}

TEST(Composite, Rendering) {
  EXPECT_EQ(atpg::composite_char({V3::k1, V3::k0}), 'D');
  EXPECT_EQ(atpg::composite_char({V3::k0, V3::k1}), 'd');
  EXPECT_EQ(atpg::composite_char({V3::k1, V3::k1}), '1');
  EXPECT_EQ(atpg::composite_char({V3::kX, V3::kX}), 'X');
}

TEST(PassSchedule, TimeScaleOnlyScalesWallClock) {
  const auto full = session::PassSchedule::ga_hitec(1.0);
  const auto tiny = session::PassSchedule::ga_hitec(0.01);
  ASSERT_EQ(full.passes.size(), tiny.passes.size());
  for (std::size_t p = 0; p < full.passes.size(); ++p) {
    EXPECT_NEAR(tiny.passes[p].time_limit_s,
                0.01 * full.passes[p].time_limit_s, 1e-12);
    EXPECT_EQ(tiny.passes[p].max_backtracks, full.passes[p].max_backtracks);
    EXPECT_EQ(tiny.passes[p].ga_population, full.passes[p].ga_population);
    EXPECT_EQ(tiny.passes[p].mode, full.passes[p].mode);
  }
}

TEST(FaultToString, ReadableForms) {
  const auto c = gen::make_s27();
  const fault::Fault stem{c.find("G10"), fault::kOutputPin, true};
  EXPECT_EQ(fault::to_string(c, stem), "G10 s-a-1");
  const fault::Fault branch{c.find("G15"), 1, false};
  const std::string s = fault::to_string(c, branch);
  EXPECT_NE(s.find("G15.in1"), std::string::npos);
  EXPECT_NE(s.find("s-a-0"), std::string::npos);
}

TEST(S27, KnownStructure) {
  const auto c = gen::make_s27();
  // The canonical s27 netlist facts.
  EXPECT_EQ(c.type(c.find("G9")), netlist::GateType::kNand);
  EXPECT_EQ(c.type(c.find("G11")), netlist::GateType::kNor);
  EXPECT_EQ(c.fanouts(c.find("G8")).size(), 2u);  // feeds G15 and G16
  EXPECT_TRUE(c.is_primary_output(c.find("G17")));
  EXPECT_FALSE(c.is_primary_output(c.find("G16")));
  EXPECT_EQ(c.pi_index(c.find("G2")), 2);
  EXPECT_EQ(c.ff_index(c.find("G6")), 1);
}

}  // namespace
}  // namespace gatpg
