// gtest checks of an atpg::FrameModel against the naive oracle of
// reference_frames.h: the whole observable state of a model, and the
// in-place greedy state minimization the deterministic engines run on
// their search models.
//
// A goal-cone model (FrameModel::reset() with goal nodes) specifies only
// the cells of its cone, so its checks take a NodeScope from goal_cone();
// every other model is checked on all nodes (the default, empty scope).
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "atpg/frame_model.h"
#include "helpers/reference_frames.h"

namespace gatpg::test {

/// The nodes whose cells a check compares: scope[n] != 0, or every node
/// when empty.
using NodeScope = std::vector<char>;

inline bool in_scope(const NodeScope& scope, netlist::NodeId n) {
  return scope.empty() || scope[n] != 0;
}

/// The goal cone of `goals`, computed independently of the model: the goal
/// nodes plus the transitive fan-in of every combinational gate in it
/// (PIs, flip-flops and constants end the walk).
inline NodeScope goal_cone(const netlist::Circuit& c,
                           std::span<const netlist::NodeId> goals) {
  NodeScope scope(c.node_count(), 0);
  std::vector<netlist::NodeId> todo(goals.begin(), goals.end());
  while (!todo.empty()) {
    const netlist::NodeId n = todo.back();
    todo.pop_back();
    if (scope[n]) continue;
    scope[n] = 1;
    if (!netlist::is_combinational(c.type(n))) continue;
    for (netlist::NodeId in : c.fanins(n)) todo.push_back(in);
  }
  return scope;
}

/// Asserts that every observable of `m` equals the oracle's recomputation
/// from `pis` (one vector per active frame) and `state`: window size, both
/// value planes of every active frame (on the nodes of `scope`), the
/// fault-effect summaries, the D-frontier (contents *and* order), and the
/// extracted vectors/state.
inline void expect_matches_oracle(const netlist::Circuit& c,
                                  const std::optional<fault::Fault>& fault,
                                  const atpg::FrameModel& m,
                                  const sim::Sequence& pis,
                                  const sim::State3& state,
                                  const std::string& context,
                                  const NodeScope& scope = {}) {
  const auto frames = static_cast<unsigned>(pis.size());
  ASSERT_EQ(m.frame_count(), frames) << context;
  const ReferenceFrames ref = reference_frames(c, fault, pis, state);
  for (unsigned t = 0; t < frames; ++t) {
    for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
      if (!in_scope(scope, n)) continue;
      ASSERT_EQ(m.good(t, n), ref.good[t][n])
          << context << " good frame " << t << " node " << c.name(n);
      ASSERT_EQ(m.faulty(t, n), ref.faulty[t][n])
          << context << " faulty frame " << t << " node " << c.name(n);
    }
    ASSERT_EQ(m.d_reaches_ff_input(t), ref.d_at_ff_input[t])
        << context << " d_reaches_ff_input frame " << t;
  }
  ASSERT_EQ(m.po_has_d(), ref.po_has_d) << context;
  const auto& frontier = m.d_frontier();
  ASSERT_EQ(frontier.size(), ref.d_frontier.size())
      << context << " d_frontier size";
  for (std::size_t k = 0; k < frontier.size(); ++k) {
    ASSERT_EQ(frontier[k].frame, ref.d_frontier[k].first)
        << context << " d_frontier[" << k << "]";
    ASSERT_EQ(frontier[k].node, ref.d_frontier[k].second)
        << context << " d_frontier[" << k << "]";
  }
  ASSERT_EQ(m.extract_vectors(), pis) << context;
  ASSERT_EQ(m.extract_state(), state) << context;
}

/// Runs `minimize` (a state minimizer probing `m` in place) and checks that
/// it is invisible to the search: `m` ends at the same trail position with
/// every observable unchanged, matching the oracle.  Also checks that the
/// returned state is exactly the greedy index-order clearing computed on
/// the oracle, where `keeps(ReferenceFrames)` says whether a candidate
/// state still meets the minimizer's goal.  `scope` as in
/// expect_matches_oracle.  Returns the minimized state.
template <typename Minimize, typename Keeps>
sim::State3 expect_minimizes_in_place(const netlist::Circuit& c,
                                      const std::optional<fault::Fault>& fault,
                                      const atpg::FrameModel& m,
                                      Minimize&& minimize, Keeps&& keeps,
                                      const std::string& context,
                                      const NodeScope& scope = {}) {
  const std::size_t mark = m.trail_mark();
  const sim::Sequence pis = m.extract_vectors();
  const sim::State3 state = m.extract_state();
  const sim::State3 got = minimize();
  EXPECT_EQ(m.trail_mark(), mark) << context;
  expect_matches_oracle(c, fault, m, pis, state, context + " after", scope);

  sim::State3 greedy = state;
  for (std::size_t i = 0; i < greedy.size(); ++i) {
    if (greedy[i] == sim::V3::kX) continue;
    sim::State3 cleared = greedy;
    cleared[i] = sim::V3::kX;
    if (keeps(reference_frames(c, fault, pis, cleared))) greedy = cleared;
  }
  EXPECT_EQ(got, greedy) << context;
  return got;
}

}  // namespace gatpg::test
