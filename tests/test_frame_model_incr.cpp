// Differential tests for the FrameModel implication engine: after every
// step of randomized operation sequences (assignments, clears, window
// extensions, trail-based backtracking) over every registry circuit — fault
// free, with stuck-at faults, and with transition faults of both launch
// skews — the model must agree with the naive recompute-everything oracle
// of tests/helpers/reference_frames.h on both value planes of every active
// frame, the fault-effect summaries, and the D-frontier contents *and*
// order.  Goal-cone models (fault-free, one frame, restricted to the fan-in
// cone of a goal set) must agree with the oracle on every cone cell.
// FrameModelPool reuse (reset-and-reuse instead of per-fault construction)
// must be bit-identical and must retain buffer capacity across shrink/grow
// cycles.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "atpg/detengine.h"
#include "atpg/frame_model.h"
#include "fault/faultlist.h"
#include "gen/registry.h"
#include "helpers/model_checks.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace gatpg::atpg {
namespace {

using fault::Fault;
using sim::V3;

constexpr unsigned kMaxFrames = 5;

/// The assignments a session has made, tracked independently of the model
/// under test: PI values of every frame up to the cap, the frame-0 state,
/// and the window size.
struct Assignments {
  sim::Sequence pis;
  sim::State3 state;
  unsigned frames = 1;
};

/// test::expect_matches_oracle over the active frames of `a`.
void expect_matches_oracle(const netlist::Circuit& c,
                           const std::optional<Fault>& fault,
                           const FrameModel& m, const Assignments& a,
                           const std::string& context,
                           const test::NodeScope& scope = {}) {
  const sim::Sequence active(a.pis.begin(), a.pis.begin() + a.frames);
  test::expect_matches_oracle(c, fault, m, active, a.state, context, scope);
}

/// Asserts that two models agree on every observable (pool-reuse tests),
/// comparing the cells of the nodes in `scope`.
void expect_agree(const netlist::Circuit& c, const FrameModel& x,
                  const FrameModel& y, const std::string& context,
                  const test::NodeScope& scope = {}) {
  ASSERT_EQ(x.frame_count(), y.frame_count()) << context;
  for (unsigned t = 0; t < x.frame_count(); ++t) {
    for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
      if (!test::in_scope(scope, n)) continue;
      ASSERT_EQ(x.good(t, n), y.good(t, n)) << context << " " << c.name(n);
      ASSERT_EQ(x.faulty(t, n), y.faulty(t, n)) << context << " " << c.name(n);
    }
    ASSERT_EQ(x.d_reaches_ff_input(t), y.d_reaches_ff_input(t)) << context;
  }
  ASSERT_EQ(x.po_has_d(), y.po_has_d()) << context;
  const auto fx = x.d_frontier();  // copy: the next call reuses the buffer
  const auto& fy = y.d_frontier();
  ASSERT_EQ(fx.size(), fy.size()) << context;
  for (std::size_t k = 0; k < fx.size(); ++k) {
    ASSERT_EQ(fx[k].frame, fy[k].frame) << context;
    ASSERT_EQ(fx[k].node, fy[k].node) << context;
  }
  ASSERT_EQ(x.extract_vectors(), y.extract_vectors()) << context;
  ASSERT_EQ(x.extract_state(), y.extract_state()) << context;
}

/// One randomized push/backtrack session.  Pushed ops mirror DecisionStack
/// usage: a trail mark and the assignments are recorded before each op, so
/// backtracking restores the model via undo_to + set_frame_count and the
/// oracle's inputs from the saved copy.  Non-empty `goals` runs a
/// fault-free one-frame goal-cone model, checked on its cone.
void run_random_session(const netlist::Circuit& c,
                        const std::optional<Fault>& fault, unsigned ops,
                        std::uint64_t seed,
                        const std::vector<netlist::NodeId>& goals = {}) {
  const unsigned max_frames = goals.empty() ? kMaxFrames : 1;
  const test::NodeScope scope =
      goals.empty() ? test::NodeScope{} : test::goal_cone(c, goals);
  FrameModel m(c, fault, max_frames, goals);
  const std::size_t npi = c.primary_inputs().size();
  const std::size_t nff = c.flip_flops().size();
  Assignments a{sim::Sequence(max_frames, sim::Vector3(npi, V3::kX)),
                sim::State3(nff, V3::kX), 1};

  struct PushedOp {
    std::size_t mark = 0;
    Assignments before;
  };
  std::vector<PushedOp> stack;

  util::Rng rng(seed);
  const V3 values[3] = {V3::k0, V3::k1, V3::kX};
  const std::string base =
      c.name() +
      (fault ? " fault " + fault::to_string(c, *fault) : " no-fault") +
      (goals.empty() ? "" : " cone of " + std::to_string(goals.size()));
  expect_matches_oracle(c, fault, m, a, base + " construction", scope);
  for (unsigned op = 0; op < ops; ++op) {
    const std::string context = base + " op " + std::to_string(op);
    const std::uint64_t kind = rng.below(10);
    if (kind < 3 && !stack.empty()) {
      // Backtrack: restore to the state before the most recent push.
      const PushedOp popped = std::move(stack.back());
      stack.pop_back();
      m.undo_to(popped.mark);
      m.set_frame_count(popped.before.frames);
      a = popped.before;
    } else {
      stack.push_back({m.trail_mark(), a});
      if (kind < 5 && a.frames < max_frames) {
        ASSERT_TRUE(m.extend()) << context;
        ++a.frames;
      } else if (nff > 0 && kind < 7) {
        const std::size_t ff = rng.below(nff);
        const V3 v = values[rng.below(3)];
        m.assign_state(ff, v);
        a.state[ff] = v;
      } else if (npi > 0) {
        const auto frame = static_cast<unsigned>(rng.below(a.frames));
        const std::size_t pi = rng.below(npi);
        const V3 v = values[rng.below(3)];
        m.assign_pi(frame, pi, v);
        a.pis[frame][pi] = v;
      }
    }
    expect_matches_oracle(c, fault, m, a, context, scope);
  }

  // Full unwind: the trail must restore the exact post-construction state.
  if (!stack.empty()) m.undo_to(stack.front().mark);
  m.set_frame_count(1);
  const FrameModel fresh(c, fault, max_frames, goals);
  expect_agree(c, m, fresh, base + " unwound", scope);
}

/// A spread of faults across the collapsed list of `universe` (first and
/// evenly spaced), bounded by `count`.
std::vector<Fault> sample_faults(
    const netlist::Circuit& c, std::size_t count,
    fault::FaultUniverse universe = fault::FaultUniverse::kStuckAt) {
  const auto all = fault::collapse(c, universe).faults;
  std::vector<Fault> picked;
  if (all.empty() || count == 0) return picked;
  const std::size_t stride = std::max<std::size_t>(1, all.size() / count);
  for (std::size_t i = 0; i < all.size() && picked.size() < count;
       i += stride) {
    picked.push_back(all[i]);
  }
  return picked;
}

/// A transition fault on a flip-flop D pin (launch skew 2): the first one
/// of the collapsed list, else one built on the first flip-flop (collapsing
/// may fold every D-pin fault into its driver's stem).  Nullopt for
/// combinational circuits.
std::optional<Fault> dff_pin_transition(const netlist::Circuit& c) {
  if (c.flip_flops().empty()) return std::nullopt;
  for (const Fault& f :
       fault::collapse(c, fault::FaultUniverse::kTransition).faults) {
    if (f.pin == 0 && c.type(f.node) == netlist::GateType::kDff) return f;
  }
  return fault::make_transition(c.flip_flops()[0], 0, true);
}

TEST(FrameModelIncr, RandomizedOpsAgreeOnAllRegistryCircuits) {
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const bool large = c.node_count() > 1500;
    const unsigned ops = large ? 12 : 48;
    run_random_session(c, std::nullopt, ops, 0xabc0 + c.node_count());
    // Stuck-at faults, then transition faults of both launch skews.
    std::vector<Fault> faults = sample_faults(c, large ? 1 : 3);
    for (const Fault& f : sample_faults(c, large ? 1 : 3,
                                        fault::FaultUniverse::kTransition)) {
      faults.push_back(f);
    }
    if (const auto f = dff_pin_transition(c)) faults.push_back(*f);
    std::uint64_t seed = 17;
    for (const Fault& f : faults) run_random_session(c, f, ops, seed++);
  }
}

TEST(FrameModelIncr, GoalConeSessionsAgreeOnAllRegistryCircuits) {
  // Goal sets like the justifier's (flip-flop D inputs), then arbitrary
  // nodes; duplicates may occur and must be harmless.
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const bool large = c.node_count() > 1500;
    const unsigned ops = large ? 12 : 48;
    const auto ffs = c.flip_flops();
    util::Rng rng(0xc0e0 + c.node_count());
    for (int set = 0; set < 3; ++set) {
      std::vector<netlist::NodeId> goals;
      const std::size_t count = 1 + rng.below(4);
      for (std::size_t k = 0; k < count; ++k) {
        goals.push_back(set < 2 && !ffs.empty()
                            ? c.fanins(ffs[rng.below(ffs.size())])[0]
                            : static_cast<netlist::NodeId>(
                                  rng.below(c.node_count())));
      }
      run_random_session(c, std::nullopt, ops, 41 + set, goals);
    }
  }
}

/// Runs one fault through ForwardEngine and records every observable of the
/// search: per-solution status, vectors, minimized state, and the final
/// decision/backtrack counts.
struct SearchRecord {
  std::vector<ForwardStatus> statuses;
  std::vector<sim::Sequence> vectors;
  std::vector<sim::State3> states;
  long decisions = 0;
  long backtracks = 0;

  bool operator==(const SearchRecord&) const = default;
};

SearchRecord run_search(const netlist::Circuit& c, const Fault& f,
                        const ObsDistances& obs, FrameModelPool* pool) {
  SearchLimits limits;
  limits.max_backtracks = 150;
  limits.max_forward_frames = 6;
  ForwardEngine engine(c, f, limits, obs, pool);
  // The unlimited deadline keeps the comparison deterministic: every run
  // clips on the backtrack budget, never on wall clock.
  const auto deadline = util::Deadline::unlimited();
  SearchRecord r;
  for (unsigned s = 0; s < 3; ++s) {
    const ForwardStatus status = engine.next_solution(deadline);
    r.statuses.push_back(status);
    if (status != ForwardStatus::kSolved) break;
    r.vectors.push_back(engine.vectors());
    r.states.push_back(engine.required_state());
  }
  r.decisions = engine.stats().decisions;
  r.backtracks = engine.stats().backtracks;
  EXPECT_GT(engine.stats().gate_evals, 0);
  return r;
}

// -- Model pooling -----------------------------------------------------------

TEST(FrameModelPool, AcquireReusesFreedModels) {
  const auto c = gen::make_circuit("g298");
  const auto faults = sample_faults(c, 3);
  ASSERT_GE(faults.size(), 2u);
  FrameModelPool pool(c);
  EXPECT_EQ(pool.constructions(), 0u);
  EXPECT_EQ(pool.acquires(), 0u);
  {
    const FrameModelHandle h = pool.acquire(faults[0], 3);
    EXPECT_EQ(pool.constructions(), 1u);
    // A second concurrent handle needs a second model.
    const FrameModelHandle h2 = pool.acquire(faults[1], 4);
    EXPECT_EQ(pool.constructions(), 2u);
  }
  // Both returned to the free list: further acquires construct nothing.
  for (unsigned i = 0; i < 8; ++i) {
    const FrameModelHandle h =
        pool.acquire(faults[i % faults.size()], 2 + i % 3);
    EXPECT_EQ(pool.constructions(), 2u) << i;
  }
  EXPECT_EQ(pool.acquires(), 10u);
}

TEST(FrameModelPool, ResetIsBitIdenticalToFreshConstruction) {
  const auto c = gen::make_circuit("g298");
  const auto faults = sample_faults(c, 4);
  ASSERT_GE(faults.size(), 2u);
  const std::size_t npi = c.primary_inputs().size();
  // Dirty a model thoroughly: fault A, assignments, window growth.
  FrameModel reused(c, faults[0], 4);
  util::Rng rng(31);
  reused.extend();
  for (int i = 0; i < 6; ++i) {
    reused.assign_pi(static_cast<unsigned>(rng.below(2)), rng.below(npi),
                     rng.bit() ? V3::k1 : V3::k0);
  }
  // Reset to fault B must equal a fresh fault-B model everywhere.
  reused.reset(faults[1], 3);
  FrameModel fresh(c, faults[1], 3);
  expect_agree(c, reused, fresh, "reset-vs-fresh");
  EXPECT_EQ(reused.trail_mark(), 0u);
  EXPECT_EQ(reused.stats().gate_evals, fresh.stats().gate_evals);
  EXPECT_EQ(reused.stats().events, fresh.stats().events);
  // And it must behave identically from here on.
  reused.assign_pi(0, 0, V3::k1);
  fresh.assign_pi(0, 0, V3::k1);
  expect_agree(c, reused, fresh, "reset-vs-fresh after assign");
}

TEST(FrameModelPool, GoalConeResetIsBitIdenticalToFreshConstruction) {
  const auto c = gen::make_circuit("g298");
  const auto ffs = c.flip_flops();
  ASSERT_GE(ffs.size(), 3u);
  const std::vector<netlist::NodeId> cone_a = {c.fanins(ffs[0])[0],
                                               c.fanins(ffs[1])[0]};
  const std::vector<netlist::NodeId> cone_b = {c.fanins(ffs.back())[0]};
  const std::size_t npi = c.primary_inputs().size();
  FrameModel reused(c, std::nullopt, 1, cone_a);
  util::Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    reused.assign_pi(0, rng.below(npi), rng.bit() ? V3::k1 : V3::k0);
    reused.assign_state(rng.below(ffs.size()), rng.bit() ? V3::k1 : V3::k0);
  }

  // Cone A -> cone B: equal to a fresh cone-B model on cone B.
  reused.reset(std::nullopt, 1, cone_b);
  FrameModel fresh_b(c, std::nullopt, 1, cone_b);
  const test::NodeScope scope_b = test::goal_cone(c, cone_b);
  expect_agree(c, reused, fresh_b, "cone reset-vs-fresh", scope_b);
  EXPECT_EQ(reused.trail_mark(), 0u);
  EXPECT_EQ(reused.stats().gate_evals, fresh_b.stats().gate_evals);
  const std::uint64_t cone_build_evals = fresh_b.stats().gate_evals;
  reused.assign_state(0, V3::k1);
  fresh_b.assign_state(0, V3::k1);
  expect_agree(c, reused, fresh_b, "cone after assign", scope_b);
  sim::State3 state(ffs.size(), V3::kX);
  state[0] = V3::k1;
  test::expect_matches_oracle(c, std::nullopt, reused,
                              sim::Sequence(1, sim::Vector3(npi, V3::kX)),
                              state, "cone vs oracle", scope_b);

  // Cone -> full: every cell is kept again.
  reused.reset(std::nullopt, 1);
  const FrameModel fresh_full(c, std::nullopt, 1);
  expect_agree(c, reused, fresh_full, "full reset-vs-fresh");
  EXPECT_EQ(reused.stats().gate_evals, fresh_full.stats().gate_evals);
  EXPECT_LT(cone_build_evals, fresh_full.stats().gate_evals);
  reused.assign_state(0, V3::k1);
  test::expect_matches_oracle(c, std::nullopt, reused,
                              sim::Sequence(1, sim::Vector3(npi, V3::kX)),
                              state, "full vs oracle");
}

TEST(FrameModelPool, BufferCapacityRetainedAcrossShrinkGrowCycles) {
  const auto c = gen::make_circuit("g526");
  const auto faults = sample_faults(c, 2);
  ASSERT_GE(faults.size(), 2u);
  FrameModel m(c, faults[0], 6);
  const std::uint64_t grows = m.buffer_grows();
  // Window shrink/grow via reset and extend/set_frame_count must reuse the
  // high-water buffers, never reallocate.
  for (int cycle = 0; cycle < 4; ++cycle) {
    m.reset(faults[1], 2);
    while (m.extend()) {
    }
    m.set_frame_count(1);
    m.reset(faults[0], 6);
    while (m.extend()) {
    }
    EXPECT_EQ(m.buffer_grows(), grows) << "cycle " << cycle;
  }
}

TEST(FrameModelPool, SharedPoolSearchesAreBitIdentical) {
  const auto c = gen::make_circuit("g298");
  const auto obs = share_observation_distances(c);
  const auto faults = sample_faults(c, 6);
  FrameModelPool pool(c);
  for (const Fault& f : faults) {
    const SearchRecord pooled = run_search(c, f, obs, &pool);
    const SearchRecord solo = run_search(c, f, obs, nullptr);
    EXPECT_EQ(pooled, solo) << c.name(f.node) << " pin " << f.pin;
  }
  // Minimization probes the search model in place, so one model serves
  // the whole fault list.
  EXPECT_EQ(pool.constructions(), 1u);
  EXPECT_GE(pool.acquires(), faults.size());
}

}  // namespace
}  // namespace gatpg::atpg
