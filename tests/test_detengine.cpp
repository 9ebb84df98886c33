#include <gtest/gtest.h>

#include "atpg/detengine.h"
#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "gen/s27.h"
#include "helpers/exhaustive.h"
#include "helpers/model_checks.h"
#include "helpers/random_circuit.h"

namespace gatpg::atpg {
namespace {

using fault::Fault;
using sim::V3;

SearchLimits quick_limits() {
  SearchLimits l;
  l.time_limit_s = 2.0;
  l.max_backtracks = 20000;
  l.max_forward_frames = 8;
  return l;
}

/// Completes a solved forward engine's test into a runnable sequence by
/// filling X PI bits with 0 and prepending nothing (state requirements are
/// handled by assigning the required state directly to the simulator).
sim::Sequence filled(const sim::Sequence& seq) {
  sim::Sequence out = seq;
  for (auto& v : out) {
    for (auto& bit : v) {
      if (bit == V3::kX) bit = V3::k0;
    }
  }
  return out;
}

/// Checks a forward solution against an independent dual simulation: set
/// both machines to the required state (faulty machine included — the
/// engine's pseudo inputs constrain both planes), run the vectors, expect a
/// PO difference.
bool solution_detects(const netlist::Circuit& c, const Fault& f,
                      const sim::State3& state, const sim::Sequence& vectors) {
  test::ReferenceSimulator good(c);
  test::ReferenceSimulator bad(c, f);
  good.set_state(state);
  bad.set_state(state);
  for (const auto& v : filled(vectors)) {
    const auto gp = good.apply(v);
    const auto bp = bad.apply(v);
    for (std::size_t p = 0; p < gp.size(); ++p) {
      if (gp[p] != V3::kX && bp[p] != V3::kX && gp[p] != bp[p]) return true;
    }
    good.clock();
    bad.clock();
  }
  return false;
}

/// Checks a forward solution's required state on the frame-model oracle:
/// the state keeps D/D̄ on some primary output under the solution's
/// vectors, and clearing any single assigned flip-flop loses it.  Greedy
/// clearing guarantees this 1-minimality by three-valued monotonicity (a
/// flip-flop kept because clearing it lost the D would lose it again from
/// the final, less defined state).
void expect_one_minimal(const netlist::Circuit& c, const Fault& f,
                        const sim::State3& state,
                        const sim::Sequence& vectors) {
  ASSERT_TRUE(test::reference_frames(c, f, vectors, state).po_has_d)
      << fault::to_string(c, f);
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state[i] == V3::kX) continue;
    sim::State3 cleared = state;
    cleared[i] = V3::kX;
    EXPECT_FALSE(test::reference_frames(c, f, vectors, cleared).po_has_d)
        << fault::to_string(c, f) << " keeps D without flip-flop " << i;
  }
}

TEST(ForwardEngine, SolvesEasyS27Fault) {
  const auto c = gen::make_s27();
  // G17 is the only PO; its stem s-a-0 is detectable within one frame.
  const Fault f{c.find("G17"), fault::kOutputPin, false};
  ForwardEngine engine(c, f, quick_limits());
  const auto status = engine.next_solution(util::Deadline::unlimited());
  ASSERT_EQ(status, ForwardStatus::kSolved);
  EXPECT_TRUE(solution_detects(c, f, engine.required_state(),
                               engine.vectors()));
}

TEST(ForwardEngine, EverySolutionDetectsUnderRequiredState) {
  const auto c = gen::make_s27();
  for (const Fault& f : fault::collapse(c).faults) {
    ForwardEngine engine(c, f, quick_limits());
    const auto status = engine.next_solution(util::Deadline::unlimited());
    if (status != ForwardStatus::kSolved) continue;
    EXPECT_TRUE(solution_detects(c, f, engine.required_state(),
                                 engine.vectors()))
        << fault::to_string(c, f);
    expect_one_minimal(c, f, engine.required_state(), engine.vectors());
  }
  // Transition faults minimize through the same greedy loop; their launch
  // gating is checked on the oracle alone.
  int transition_solved = 0;
  for (const Fault& f :
       fault::collapse(c, fault::FaultUniverse::kTransition).faults) {
    ForwardEngine engine(c, f, quick_limits());
    if (engine.next_solution(util::Deadline::unlimited()) !=
        ForwardStatus::kSolved) {
      continue;
    }
    ++transition_solved;
    expect_one_minimal(c, f, engine.required_state(), engine.vectors());
  }
  EXPECT_GT(transition_solved, 0);
}

TEST(ForwardEngine, AlternativeSolutionsAreAllValid) {
  const auto c = gen::make_s27();
  const Fault f{c.find("G10"), fault::kOutputPin, true};
  ForwardEngine engine(c, f, quick_limits());
  int solutions = 0;
  for (int i = 0; i < 5; ++i) {
    const auto status = engine.next_solution(util::Deadline::unlimited());
    if (status != ForwardStatus::kSolved) break;
    ++solutions;
    EXPECT_TRUE(solution_detects(c, f, engine.required_state(),
                                 engine.vectors()))
        << "solution " << i;
  }
  EXPECT_GE(solutions, 2) << "expected alternative solutions to exist";
}

/// Everything a forward search reports, solution by solution: statuses,
/// vectors and the final decision/backtrack counts.
struct ForwardRun {
  std::vector<ForwardStatus> statuses;
  std::vector<sim::Sequence> vectors;
  long decisions = 0;
  long backtracks = 0;

  bool operator==(const ForwardRun&) const = default;
};

/// Enumerates up to `max_solutions` solutions of `f`.  With `minimize`,
/// required_state() runs after every solution and is checked to leave the
/// model untouched and to equal the oracle's greedy clearing.
ForwardRun enumerate_forward(const netlist::Circuit& c, const Fault& f,
                             bool minimize, int max_solutions = 6) {
  ForwardEngine engine(c, f, quick_limits());
  ForwardRun r;
  for (int s = 0; s < max_solutions; ++s) {
    const ForwardStatus status =
        engine.next_solution(util::Deadline::unlimited());
    r.statuses.push_back(status);
    if (status != ForwardStatus::kSolved) break;
    r.vectors.push_back(engine.vectors());
    if (minimize) {
      test::expect_minimizes_in_place(
          c, f, engine.model(), [&] { return engine.required_state(); },
          [](const test::ReferenceFrames& ref) { return ref.po_has_d; },
          fault::to_string(c, f) + " solution " + std::to_string(s));
    }
  }
  r.decisions = engine.stats().decisions;
  r.backtracks = engine.stats().backtracks;
  return r;
}

TEST(ForwardEngine, InPlaceMinimizationIsInvisibleToTheSearch) {
  // required_state() probes the search model itself; the search that
  // minimizes after every solution must enumerate exactly what one that
  // never minimizes does.
  const auto c = gen::make_s27();
  for (const auto universe :
       {fault::FaultUniverse::kStuckAt, fault::FaultUniverse::kTransition}) {
    int solved = 0;
    for (const Fault& f : fault::collapse(c, universe).faults) {
      const ForwardRun minimized = enumerate_forward(c, f, true);
      EXPECT_EQ(minimized, enumerate_forward(c, f, false))
          << fault::to_string(c, f);
      solved += static_cast<int>(minimized.vectors.size());
    }
    EXPECT_GT(solved, 0);
  }
}

TEST(ForwardEngine, CombinationallyRedundantFaultIsUntestable) {
  // y = a OR (a AND b): the AND gate is redundant; s-a-0 on its output is
  // untestable.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto bb = b.add_input("b");
  const auto g = b.add_gate(netlist::GateType::kAnd, "g", {a, bb});
  const auto y = b.add_gate(netlist::GateType::kOr, "y", {a, g});
  b.mark_output(y);
  const auto c = std::move(b).build("redund");
  const Fault f{g, fault::kOutputPin, false};
  ForwardEngine engine(c, f, quick_limits());
  EXPECT_EQ(engine.next_solution(util::Deadline::unlimited()),
            ForwardStatus::kUntestable);
}

TEST(ForwardEngine, DetectableFaultIsNeverCalledUntestable) {
  // y = a AND b is fully testable.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto bb = b.add_input("b");
  b.mark_output(b.add_gate(netlist::GateType::kAnd, "y", {a, bb}));
  const auto c = std::move(b).build("and2");
  for (const Fault& f : fault::collapse(c).faults) {
    ForwardEngine engine(c, f, quick_limits());
    EXPECT_EQ(engine.next_solution(util::Deadline::unlimited()),
              ForwardStatus::kSolved)
        << fault::to_string(c, f);
  }
}

TEST(ForwardEngine, RespectsBacktrackLimit) {
  test::RandomCircuitSpec spec;
  spec.seed = 4242;
  spec.num_gates = 60;
  const auto c = test::make_random_circuit(spec);
  SearchLimits tight = quick_limits();
  tight.max_backtracks = 0;
  // With zero backtracks allowed, the engine must terminate immediately on
  // the first conflict rather than search.
  for (const Fault& f : fault::collapse(c).faults) {
    ForwardEngine engine(c, f, tight);
    const auto status = engine.next_solution(util::Deadline::unlimited());
    EXPECT_LE(engine.stats().backtracks, 1);
    (void)status;  // any status is fine; bounded effort is the point
  }
}

TEST(ForwardEngine, RespectsDeadline) {
  test::RandomCircuitSpec spec;
  spec.seed = 99;
  spec.num_gates = 80;
  const auto c = test::make_random_circuit(spec);
  const Fault f = fault::collapse(c).faults[3];
  ForwardEngine engine(c, f, quick_limits());
  const auto expired = util::Deadline::after_seconds(1e-9);
  // Give the deadline a moment to be in the past.
  while (!expired.expired()) {
  }
  EXPECT_EQ(engine.next_solution(expired), ForwardStatus::kAborted);
}

// The soundness pillar: on small random sequential circuits, every
// "untestable" verdict must agree with exhaustive product-machine
// reachability, and every solved fault's test must actually detect it when
// the required state can be reached... here we check the stronger half
// (untestable => truly undetectable) plus solution validity.
class UntestableSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UntestableSoundness, UntestableClaimsAreTrue) {
  test::RandomCircuitSpec spec;
  spec.seed = GetParam() + 900;
  spec.num_inputs = 3;
  spec.num_ffs = 2;
  spec.num_gates = 12;
  const auto c = test::make_random_circuit(spec);
  for (const Fault& f : fault::collapse(c).faults) {
    ForwardEngine engine(c, f, quick_limits());
    const auto status = engine.next_solution(util::Deadline::unlimited());
    if (status == ForwardStatus::kUntestable) {
      const auto truth = test::exhaustively_detectable(c, f);
      if (truth.has_value()) {
        EXPECT_FALSE(*truth)
            << fault::to_string(c, f) << " claimed untestable but a test "
            << "exists (seed " << GetParam() << ")";
      }
    } else if (status == ForwardStatus::kSolved) {
      EXPECT_TRUE(solution_detects(c, f, engine.required_state(),
                                   engine.vectors()))
          << fault::to_string(c, f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, UntestableSoundness,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ObservationDistances, PoIsZeroAndMonotone) {
  const auto c = gen::make_s27();
  const auto dist = observation_distances(c);
  for (auto po : c.primary_outputs()) EXPECT_EQ(dist[po], 0u);
  // Every node in s27 eventually reaches the PO.
  for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
    EXPECT_LT(dist[n], 100000u) << c.name(n);
  }
}

}  // namespace
}  // namespace gatpg::atpg
