// PODEM-style decision machinery over a FrameModel.
//
// Decisions are made only on assignable variables (frame PIs and the frame-0
// pseudo state), values are derived by forward implication (the
// FrameModel's event-driven propagation), and conflicts are resolved by
// chronological backtracking: undo the most recent decision through the
// model's trail and flip it, or pop it if both values failed.  The same
// machinery drives the forward excitation/propagation engine and the
// per-frame goal searches of the deterministic justifier; each supplies its
// own objective selection and conflict predicate.
#pragma once

#include <optional>
#include <vector>

#include "atpg/frame_model.h"
#include "atpg/limits.h"
#include "util/stopwatch.h"

namespace gatpg::atpg {

/// A value requirement at a node used to steer backtrace.
struct Objective {
  unsigned frame = 0;
  netlist::NodeId node = netlist::kNoNode;
  sim::V3 value = sim::V3::kX;
};

/// Where backtrace landed: an unassigned PI of some frame, or a frame-0
/// pseudo-state variable.
struct InputAssignment {
  bool is_state = false;
  unsigned frame = 0;
  std::size_t index = 0;  // PI index or FF index
  sim::V3 value = sim::V3::kX;
};

/// Walks an X-path from `obj` backwards to an unassigned PI or pseudo-state
/// input, crossing flip-flops into earlier frames.  Returns nullopt when no
/// assignable input can influence the objective (the caller backtracks).
std::optional<InputAssignment> backtrace(const FrameModel& m,
                                         const Objective& obj);

/// Search statistics, reported per fault by the engines.
struct SearchStats {
  long decisions = 0;
  long backtracks = 0;
  long gate_evals = 0;  // implication effort: gate evaluations (both planes)
  long events = 0;      // implication event-queue pops
  bool clipped = false;  // some limit clipped the search (no proofs possible)
};

/// Chronological decision stack bound to a FrameModel.
class DecisionStack {
 public:
  explicit DecisionStack(FrameModel& model) : model_(model) {}

  /// Applies a decision and re-implies.
  void push(const InputAssignment& a);

  /// Flips the newest unflipped decision (one backtrack); pops exhausted
  /// decisions.  Restores the frame window recorded with each decision.
  /// Returns false when the stack is exhausted (search space done).
  bool backtrack(SearchStats& stats);

  bool empty() const { return stack_.empty(); }
  std::size_t depth() const { return stack_.size(); }

  /// Clears every decision (leaves the model fully unassigned).
  void unwind_all();

 private:
  struct Entry {
    InputAssignment assignment;
    bool flipped = false;
    unsigned frames_at_push = 1;
    /// Trail mark taken just before the decision was applied: undoing to it
    /// restores the exact pre-decision state.
    std::size_t mark = 0;
  };

  void apply(const InputAssignment& a);

  FrameModel& model_;
  std::vector<Entry> stack_;
};

}  // namespace gatpg::atpg
