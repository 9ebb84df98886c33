// Full-model oracle for atpg::FrameGoalSearch.
//
// The same PODEM loop as the production search (goal order, conflict and
// satisfaction tests, backtrace, chronological backtracking, greedy state
// minimization), run on an unrestricted fault-free one-frame FrameModel
// that keeps every node current.  The production search keeps only the
// fan-in cone of its goals; a test running both side by side shows the
// restriction changes nothing the search decides, only the implication
// effort it spends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/frame_model.h"
#include "atpg/justify.h"
#include "atpg/podem.h"
#include "util/stopwatch.h"

namespace gatpg::test {

class FullModelGoalSearch {
 public:
  using Step = atpg::FrameGoalSearch::Step;

  FullModelGoalSearch(const netlist::Circuit& c,
                      std::vector<atpg::Objective> goals)
      : model_(c, std::nullopt, 1), stack_(model_), goals_(std::move(goals)) {}

  Step next(const util::Deadline& deadline, long max_backtracks,
            atpg::SearchStats& stats) {
    const Step step = advance(deadline, max_backtracks, stats);
    stats.gate_evals +=
        static_cast<long>(model_.stats().gate_evals - synced_gate_evals_);
    stats.events += static_cast<long>(model_.stats().events - synced_events_);
    synced_gate_evals_ = model_.stats().gate_evals;
    synced_events_ = model_.stats().events;
    return step;
  }

  const atpg::FrameModel& model() const { return model_; }

  sim::State3 minimized_state() {
    return model_.minimized_state([&] { return satisfied(); });
  }

 private:
  bool conflict() const {
    return std::any_of(goals_.begin(), goals_.end(), [&](const auto& g) {
      const sim::V3 v = model_.good(0, g.node);
      return v != sim::V3::kX && v != g.value;
    });
  }
  bool satisfied() const {
    return std::all_of(goals_.begin(), goals_.end(), [&](const auto& g) {
      return model_.good(0, g.node) == g.value;
    });
  }

  Step advance(const util::Deadline& deadline, long max_backtracks,
               atpg::SearchStats& stats) {
    if (started_ && !stack_.backtrack(stats)) return Step::kExhausted;
    started_ = true;
    for (;;) {
      if (deadline.expired() || stats.backtracks > max_backtracks) {
        stats.clipped = true;
        return Step::kAborted;
      }
      if (conflict()) {
        if (!stack_.backtrack(stats)) return Step::kExhausted;
        continue;
      }
      if (satisfied()) return Step::kSolution;
      // The first goal still X.  There is always one here (no goal
      // conflicts and not all hold); a miss backtracks, as in production.
      const auto obj = std::find_if(
          goals_.begin(), goals_.end(), [&](const atpg::Objective& g) {
            return model_.good(0, g.node) == sim::V3::kX;
          });
      const auto assignment = obj == goals_.end()
                                  ? std::nullopt
                                  : atpg::backtrace(model_, *obj);
      if (!assignment) {
        if (!stack_.backtrack(stats)) return Step::kExhausted;
        continue;
      }
      ++stats.decisions;
      stack_.push(*assignment);
    }
  }

  atpg::FrameModel model_;
  atpg::DecisionStack stack_;
  std::vector<atpg::Objective> goals_;
  std::uint64_t synced_gate_evals_ = 0;
  std::uint64_t synced_events_ = 0;
  bool started_ = false;
};

}  // namespace gatpg::test
