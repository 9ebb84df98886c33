#include <gtest/gtest.h>

#include <algorithm>

#include "atpg/justify.h"
#include "gen/registry.h"
#include "gen/s27.h"
#include "helpers/full_goal_search.h"
#include "helpers/random_circuit.h"
#include "helpers/model_checks.h"
#include "helpers/reference_sim.h"
#include "sim/seqsim.h"

namespace gatpg::atpg {
namespace {

using sim::State3;
using sim::V3;

SearchLimits limits() {
  SearchLimits l;
  l.time_limit_s = 5.0;
  l.max_backtracks = 50000;
  l.max_justify_depth = 16;
  return l;
}

/// The flip-flop D-input goals of justifying `target` one frame back.
std::vector<Objective> frame_goals(const netlist::Circuit& c,
                                   const State3& target) {
  std::vector<Objective> goals;
  const auto ffs = c.flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (target[i] != V3::kX) {
      goals.push_back({0, c.fanins(ffs[i])[0], target[i]});
    }
  }
  return goals;
}

/// The goal nodes of `goals`: what a FrameGoalSearch restricts its model to.
std::vector<netlist::NodeId> goal_nodes(const std::vector<Objective>& goals) {
  std::vector<netlist::NodeId> nodes;
  for (const Objective& g : goals) nodes.push_back(g.node);
  return nodes;
}

/// All 26 non-trivial s27 target cubes.
std::vector<State3> s27_cubes() {
  std::vector<State3> cubes;
  for (int code = 1; code < 27; ++code) {
    State3 target(3, V3::kX);
    for (int i = 0, k = code; i < 3; ++i, k /= 3) {
      target[i] = k % 3 == 0 ? V3::kX : (k % 3 == 1 ? V3::k0 : V3::k1);
    }
    cubes.push_back(target);
  }
  return cubes;
}

/// `count` cubes of `c`: even trials are states reached by random
/// simulation, odd ones random cubes (some unsatisfiable).
std::vector<State3> sampled_cubes(const netlist::Circuit& c,
                                  std::uint64_t seed, int count) {
  util::Rng rng(seed);
  const std::size_t nff = c.flip_flops().size();
  std::vector<State3> cubes;
  for (int trial = 0; trial < count; ++trial) {
    State3 target(nff, V3::kX);
    if (trial % 2 == 0) {
      test::ReferenceSimulator ref(c);
      for (const auto& v : test::random_sequence(c, rng, 6)) {
        ref.apply(v);
        ref.clock();
      }
      target = ref.state();
    } else {
      for (auto& v : target) {
        const auto pick = rng.below(4);
        v = pick == 0 ? V3::k0 : (pick == 1 ? V3::k1 : V3::kX);
      }
    }
    cubes.push_back(target);
  }
  return cubes;
}

/// Verifies a justification sequence: from the all-X state, after applying
/// the (X-filled) sequence, every required flip-flop holds its target value.
void expect_justifies(const netlist::Circuit& c, const State3& target,
                      sim::Sequence seq) {
  for (auto& v : seq) {
    for (auto& bit : v) {
      if (bit == V3::kX) bit = V3::k0;
    }
  }
  test::ReferenceSimulator ref(c);
  for (const auto& v : seq) {
    ref.apply(v);
    ref.clock();
  }
  const State3 reached = ref.state();
  for (std::size_t i = 0; i < target.size(); ++i) {
    if (target[i] != V3::kX) {
      EXPECT_EQ(reached[i], target[i]) << "flip-flop " << i;
    }
  }
}

/// Checks the first reverse-time frame of justifying `target` on the
/// frame-model oracle: for each of up to `max_solutions` frame solutions,
/// the minimized previous-state requirement keeps every flip-flop goal
/// under the solution's PI values, and clearing any single assigned
/// flip-flop breaks some goal.  Greedy clearing guarantees this
/// 1-minimality by three-valued monotonicity.  Returns the number of
/// solutions checked.
int expect_one_minimal_frames(const netlist::Circuit& c, const State3& target,
                              int max_solutions = 4) {
  const std::vector<Objective> goals = frame_goals(c, target);
  auto goals_hold = [&](const sim::Sequence& pis, const State3& state) {
    const auto ref = test::reference_frames(c, std::nullopt, pis, state);
    return std::all_of(goals.begin(), goals.end(), [&](const Objective& g) {
      return ref.good[0][g.node] == g.value;
    });
  };
  FrameGoalSearch search(c, goals);
  SearchStats stats;
  int solutions = 0;
  while (solutions < max_solutions &&
         search.next(util::Deadline::unlimited(), 50000, stats) ==
             FrameGoalSearch::Step::kSolution) {
    ++solutions;
    const sim::Sequence pis = search.model().extract_vectors();
    const State3 state = search.minimized_state();
    EXPECT_TRUE(goals_hold(pis, state)) << "solution " << solutions;
    for (std::size_t i = 0; i < state.size(); ++i) {
      if (state[i] == V3::kX) continue;
      State3 cleared = state;
      cleared[i] = V3::kX;
      EXPECT_FALSE(goals_hold(pis, cleared))
          << "solution " << solutions << " keeps every goal without "
          << "flip-flop " << i;
    }
  }
  return solutions;
}

/// Everything a FrameGoalSearch reports, solution by solution: steps,
/// solution vectors and the final decision/backtrack counts.
struct GoalRun {
  std::vector<FrameGoalSearch::Step> steps;
  std::vector<sim::Sequence> vectors;
  long decisions = 0;
  long backtracks = 0;

  bool operator==(const GoalRun&) const = default;
};

/// Enumerates up to `max_solutions` solutions of `target`'s frame goals.
/// With `minimize`, minimized_state() runs after every solution and is
/// checked to leave the model's goal cone untouched and to equal the
/// oracle's greedy clearing.
GoalRun enumerate_goals(const netlist::Circuit& c, const State3& target,
                        bool minimize, int max_solutions = 6) {
  const std::vector<Objective> goals = frame_goals(c, target);
  const test::NodeScope cone = test::goal_cone(c, goal_nodes(goals));
  FrameGoalSearch search(c, goals);
  SearchStats stats;
  GoalRun r;
  for (int s = 0; s < max_solutions; ++s) {
    const auto step = search.next(util::Deadline::unlimited(), 50000, stats);
    r.steps.push_back(step);
    if (step != FrameGoalSearch::Step::kSolution) break;
    r.vectors.push_back(search.model().extract_vectors());
    if (minimize) {
      test::expect_minimizes_in_place(
          c, std::nullopt, search.model(),
          [&] { return search.minimized_state(); },
          [&](const test::ReferenceFrames& ref) {
            return std::all_of(goals.begin(), goals.end(),
                               [&](const Objective& g) {
                                 return ref.good[0][g.node] == g.value;
                               });
          },
          c.name() + " solution " + std::to_string(s), cone);
    }
  }
  r.decisions = stats.decisions;
  r.backtracks = stats.backtracks;
  return r;
}

TEST(FrameGoalSearch, InPlaceMinimizationIsInvisibleToTheSearch) {
  // minimized_state() probes the search model itself; the search that
  // minimizes after every solution must enumerate exactly what one that
  // never minimizes does.  s27: every non-trivial target cube.
  const auto s27 = gen::make_s27();
  int solutions = 0;
  for (const State3& target : s27_cubes()) {
    const GoalRun minimized = enumerate_goals(s27, target, true);
    EXPECT_EQ(minimized, enumerate_goals(s27, target, false));
    solutions += static_cast<int>(minimized.vectors.size());
  }
  EXPECT_GT(solutions, 0);

  // g298: states reached by random simulation, plus random cubes (some
  // unsatisfiable, which must exhaust identically too).
  const auto c = gen::make_circuit("g298");
  solutions = 0;
  int trial = 0;
  for (const State3& target : sampled_cubes(c, 11, 8)) {
    const GoalRun minimized = enumerate_goals(c, target, true);
    EXPECT_EQ(minimized, enumerate_goals(c, target, false))
        << "trial " << trial++;
    solutions += static_cast<int>(minimized.vectors.size());
  }
  EXPECT_GT(solutions, 0);
}

/// One goal search, step by step: next() up to `max_solutions` times (until
/// it stops finding solutions), minimized_state() after each solution.
/// gate_evals is the implication effort, which the comparison leaves out.
struct SearchTrace {
  std::vector<FrameGoalSearch::Step> steps;
  std::vector<sim::Sequence> vectors;
  std::vector<State3> states;
  long decisions = 0;
  long backtracks = 0;
  long gate_evals = 0;

  bool operator==(const SearchTrace& o) const {
    return steps == o.steps && vectors == o.vectors && states == o.states &&
           decisions == o.decisions && backtracks == o.backtracks;
  }
};

template <typename Search>
SearchTrace trace_search(Search& search, long max_backtracks,
                         int max_solutions = 6) {
  SearchStats stats;
  SearchTrace r;
  for (int s = 0; s < max_solutions; ++s) {
    const auto step =
        search.next(util::Deadline::unlimited(), max_backtracks, stats);
    r.steps.push_back(step);
    if (step != FrameGoalSearch::Step::kSolution) break;
    r.vectors.push_back(search.model().extract_vectors());
    r.states.push_back(search.minimized_state());
  }
  r.decisions = stats.decisions;
  r.backtracks = stats.backtracks;
  r.gate_evals = stats.gate_evals;
  return r;
}

/// Runs the production (goal-cone) search and the full-model oracle on
/// `target`'s frame goals and checks they agree step for step.  Returns
/// {cone, full} gate evaluations.
std::pair<long, long> expect_cone_matches_full(const netlist::Circuit& c,
                                               const State3& target,
                                               long max_backtracks,
                                               const std::string& context) {
  const std::vector<Objective> goals = frame_goals(c, target);
  FrameGoalSearch cone(c, goals);
  test::FullModelGoalSearch full(c, goals);
  const SearchTrace got = trace_search(cone, max_backtracks);
  const SearchTrace want = trace_search(full, max_backtracks);
  EXPECT_EQ(got, want) << context;
  EXPECT_FALSE(got.steps.empty()) << context;
  return {got.gate_evals, want.gate_evals};
}

TEST(FrameGoalSearch, GoalConeSearchMatchesFullModelSearch) {
  // Restricting the search model to the goals' fan-in cone must change
  // only the implication effort: steps, solutions, minimized states,
  // decisions and backtracks equal the full-model oracle's.
  const auto s27 = gen::make_s27();
  for (const State3& target : s27_cubes()) {
    expect_cone_matches_full(s27, target, 50000, "s27");
  }
  // The g298 trials of InPlaceMinimizationIsInvisibleToTheSearch.
  const auto g298 = gen::make_circuit("g298");
  int trial = 0;
  for (const State3& target : sampled_cubes(g298, 11, 8)) {
    expect_cone_matches_full(g298, target, 50000,
                             "g298 trial " + std::to_string(trial++));
  }
  // am2910 (the hitec_lanes circuit), on a smaller backtrack budget: an
  // aborted search must abort identically.  Each cube's cone leaves gates
  // out, so the restricted search evaluates strictly fewer.
  const auto am2910 = gen::make_circuit("am2910");
  trial = 0;
  for (const State3& target : sampled_cubes(am2910, 5, 4)) {
    const std::string context = "am2910 trial " + std::to_string(trial++);
    const auto [cone_evals, full_evals] =
        expect_cone_matches_full(am2910, target, 2000, context);
    EXPECT_LT(cone_evals, full_evals) << context;
  }
}

TEST(FrameGoalSearch, PooledSearchDrawsOneModel) {
  // Minimization needs no second model: a pooled search draws exactly one
  // across repeated next() + minimized_state() calls.
  const auto c = gen::make_s27();
  FrameModelPool pool(c);
  FrameGoalSearch search(c, frame_goals(c, {V3::k1, V3::kX, V3::k0}), &pool);
  SearchStats stats;
  int solutions = 0;
  while (search.next(util::Deadline::unlimited(), 50000, stats) ==
         FrameGoalSearch::Step::kSolution) {
    (void)search.minimized_state();
    ++solutions;
  }
  EXPECT_GE(solutions, 2);
  EXPECT_EQ(pool.acquires(), 1u);
  EXPECT_EQ(pool.constructions(), 1u);
}

TEST(DeterministicJustifier, AllXTargetIsTrivial) {
  const auto c = gen::make_s27();
  DeterministicJustifier j(c, limits());
  const auto out = j.justify(State3(3, V3::kX), util::Deadline::unlimited());
  EXPECT_EQ(out.status, DeterministicJustifier::Status::kJustified);
  EXPECT_TRUE(out.sequence.empty());
}

TEST(DeterministicJustifier, JustifiesSingleBitTargets) {
  const auto c = gen::make_s27();
  DeterministicJustifier j(c, limits());
  for (std::size_t ff = 0; ff < 3; ++ff) {
    for (V3 v : {V3::k0, V3::k1}) {
      State3 target(3, V3::kX);
      target[ff] = v;
      const auto out = j.justify(target, util::Deadline::unlimited());
      if (out.status == DeterministicJustifier::Status::kJustified) {
        expect_justifies(c, target, out.sequence);
        EXPECT_GT(expect_one_minimal_frames(c, target), 0);
      } else {
        // s27 state bits are all individually reachable; only full search
        // exhaustion may say otherwise, and it must not on this circuit.
        ADD_FAILURE() << "ff " << ff << " value " << sim::v3_char(v)
                      << " not justified";
      }
    }
  }
}

TEST(DeterministicJustifier, ProvesUnreachableStateUnjustifiable) {
  // ff1 and ff2 both latch the same signal, so (0, 1) is unreachable.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto f1 = b.add_dff("f1");
  const auto f2 = b.add_dff("f2");
  const auto buf = b.add_gate(netlist::GateType::kBuf, "s", {a});
  b.set_dff_input(f1, buf);
  b.set_dff_input(f2, buf);
  b.mark_output(b.add_gate(netlist::GateType::kXor, "y", {f1, f2}));
  const auto c = std::move(b).build("twin");
  DeterministicJustifier j(c, limits());
  const auto out =
      j.justify({V3::k0, V3::k1}, util::Deadline::unlimited());
  EXPECT_EQ(out.status, DeterministicJustifier::Status::kUnjustifiable);
  // And the reachable combination is justified.
  const auto ok = j.justify({V3::k1, V3::k1}, util::Deadline::unlimited());
  ASSERT_EQ(ok.status, DeterministicJustifier::Status::kJustified);
  expect_justifies(c, {V3::k1, V3::k1}, ok.sequence);
  EXPECT_GT(expect_one_minimal_frames(c, {V3::k1, V3::k1}), 0);
}

TEST(DeterministicJustifier, MultiFrameChainNeedsDeepSequence) {
  // PI -> f0 -> f1 -> f2: justifying f2 = 1 needs three frames.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto f0 = b.add_dff("f0");
  const auto f1 = b.add_dff("f1");
  const auto f2 = b.add_dff("f2");
  b.set_dff_input(f0, b.add_gate(netlist::GateType::kBuf, "b0", {a}));
  b.set_dff_input(f1, b.add_gate(netlist::GateType::kBuf, "b1", {f0}));
  b.set_dff_input(f2, b.add_gate(netlist::GateType::kBuf, "b2", {f1}));
  b.mark_output(f2);
  const auto c = std::move(b).build("chain3");
  DeterministicJustifier j(c, limits());
  const auto out = j.justify({V3::kX, V3::kX, V3::k1},
                             util::Deadline::unlimited());
  ASSERT_EQ(out.status, DeterministicJustifier::Status::kJustified);
  EXPECT_EQ(out.sequence.size(), 3u);
  expect_justifies(c, {V3::kX, V3::kX, V3::k1}, out.sequence);
  EXPECT_GT(expect_one_minimal_frames(c, {V3::kX, V3::kX, V3::k1}), 0);
}

TEST(DeterministicJustifier, DepthLimitAbortsInsteadOfLying) {
  // Same chain, but a depth limit of 1 cannot reach f2.
  netlist::CircuitBuilder b;
  const auto a = b.add_input("a");
  const auto f0 = b.add_dff("f0");
  const auto f1 = b.add_dff("f1");
  b.set_dff_input(f0, b.add_gate(netlist::GateType::kBuf, "b0", {a}));
  b.set_dff_input(f1, b.add_gate(netlist::GateType::kBuf, "b1", {f0}));
  b.mark_output(f1);
  const auto c = std::move(b).build("chain2");
  SearchLimits shallow = limits();
  shallow.max_justify_depth = 1;
  DeterministicJustifier j(c, shallow);
  const auto out =
      j.justify({V3::kX, V3::k1}, util::Deadline::unlimited());
  EXPECT_EQ(out.status, DeterministicJustifier::Status::kAborted);
}

TEST(DeterministicJustifier, CyclePruningTerminates) {
  // A free-running inverter loop: ff <- NOT ff with no inputs driving it.
  // Any specific value is unjustifiable from the all-X state, and the
  // requirement cycle must terminate the search rather than hang.
  netlist::CircuitBuilder b;
  b.add_input("a");
  const auto ff = b.add_dff("ff");
  b.set_dff_input(ff, b.add_gate(netlist::GateType::kNot, "n", {ff}));
  b.mark_output(ff);
  const auto c = std::move(b).build("osc");
  DeterministicJustifier j(c, limits());
  const auto out = j.justify({V3::k1}, util::Deadline::unlimited());
  EXPECT_EQ(out.status, DeterministicJustifier::Status::kUnjustifiable);
}

// Property: every state actually reached by random simulation must be
// justifiable, and the produced sequence must work.
class JustifyReachable : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JustifyReachable, ReachedStatesAreJustified) {
  test::RandomCircuitSpec spec;
  spec.seed = GetParam() + 3000;
  spec.num_ffs = 3;
  spec.num_gates = 25;
  const auto c = test::make_random_circuit(spec);
  util::Rng rng(GetParam());
  test::ReferenceSimulator ref(c);
  // At least five random vectors, then more until some flip-flop is
  // defined; only a circuit that stays all-X for the whole bound skips.
  constexpr int kMinPrefix = 5;
  constexpr int kMaxPrefix = 64;
  State3 reached;
  bool any_defined = false;
  for (int step = 0; step < kMaxPrefix; ++step) {
    ref.apply(test::random_vector(c, rng));
    ref.clock();
    reached = ref.state();
    any_defined =
        std::any_of(reached.begin(), reached.end(),
                    [](V3 v) { return v != V3::kX; });
    if (any_defined && step + 1 >= kMinPrefix) break;
  }
  if (!any_defined) {
    GTEST_SKIP() << kMaxPrefix << " vectors left all flip-flops X";
  }

  DeterministicJustifier j(c, limits());
  const auto out = j.justify(reached, util::Deadline::unlimited());
  ASSERT_EQ(out.status, DeterministicJustifier::Status::kJustified)
      << "reached state must be justifiable (seed " << GetParam() << ")";
  expect_justifies(c, reached, out.sequence);
  EXPECT_GT(expect_one_minimal_frames(c, reached), 0);
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, JustifyReachable,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace gatpg::atpg
