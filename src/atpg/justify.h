// Deterministic state justification by reverse time processing (the
// HITEC-style back end, used by the baseline in every pass and by GA-HITEC
// from pass 3 on).
//
// To justify state S: search one combinational frame for PI/previous-state
// assignments that drive every required flip-flop D input to its target
// value; then recursively justify the previous-state requirement S'.  The
// recursion bottoms out when S' is all-X — the sequence then works from the
// power-up unknown state (HITEC "always backtraces to a time frame in which
// all flip-flops are set to unknown values", unlike the GA, which continues
// from the current good-machine state).
//
// Requirement chains that revisit a requirement are pruned: a minimal
// justification never repeats a requirement (the repeated middle could be
// cut), so pruning preserves completeness and an exhaustive failure — with
// no time/backtrack/depth clipping — proves S unjustifiable.  That proof is
// what lets the hybrid declare faults untestable.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "atpg/limits.h"
#include "atpg/podem.h"
#include "state/state_store.h"
#include "util/stopwatch.h"

namespace gatpg::atpg {

/// Enumerates assignments of one combinational frame satisfying a set of
/// node-value goals.  Used per reverse time frame by the justifier; exposed
/// for unit tests.  Its fault-free one-frame model keeps only the goals'
/// fan-in cone (FrameModel::reset()): every node the search reads (goal
/// values, backtrace fanins and XOR siblings) lies in it, and
/// minimization and extraction read assignments, so the search decides
/// exactly as on a full model while each decision evaluates only the cone
/// gates it changes.
class FrameGoalSearch {
 public:
  enum class Step { kSolution, kExhausted, kAborted };

  /// `pool` (optional) recycles the frame model across searches — the
  /// justifier builds one FrameGoalSearch per recursion level per fault, so
  /// pooling turns that into a reset.  The goal nodes fix the model's cone.
  FrameGoalSearch(const netlist::Circuit& c, std::vector<Objective> goals,
                  FrameModelPool* pool = nullptr);

  /// Advances to the next satisfying assignment.  `stats` accumulates
  /// decisions/backtracks (and implication gate-eval/event counts) across
  /// calls; `max_backtracks` is the shared per-fault budget.
  Step next(const util::Deadline& deadline, long max_backtracks,
            SearchStats& stats);

  const FrameModel& model() const { return model_; }

  /// The current solution's previous-state requirement with every
  /// unnecessary pseudo-input assignment dropped back to X.  PODEM decisions
  /// binarize state variables even when the goals hold without them; by
  /// three-valued monotonicity removing such assignments preserves the
  /// solution, and the weaker requirement is strictly easier (and sometimes
  /// uniquely possible) to justify.  Without this minimization the
  /// justifier is incomplete: it can reject states whose only witnesses
  /// leave flip-flops unknown.  The greedy probes run on the search model
  /// under a trail mark and are undone before returning, so next() resumes
  /// exactly where the search stood.
  sim::State3 minimized_state();

 private:
  bool conflict() const;
  bool satisfied() const;
  bool pick_objective(Objective& obj) const;
  Step advance(const util::Deadline& deadline, long max_backtracks,
               SearchStats& stats);
  /// Adds the model-side effort accrued since the last flush to `stats`.
  void flush_stats(SearchStats& stats);

  FrameModelHandle model_h_;
  FrameModel& model_;
  DecisionStack stack_;
  std::vector<Objective> goals_;
  std::uint64_t synced_gate_evals_ = 0;
  std::uint64_t synced_events_ = 0;
  bool started_ = false;
};

class DeterministicJustifier {
 public:
  enum class Status { kJustified, kUnjustifiable, kAborted };
  struct Outcome {
    Status status = Status::kAborted;
    sim::Sequence sequence;  // drives the all-X machine into the target state
  };

  /// `store` (optional) hooks up the cross-fault state-knowledge layer:
  /// every recursion level consults its unjustifiable-cube index (a stored
  /// cube is globally unreachable, so rejecting a sub-requirement it
  /// subsumes is sound at any depth), and a *top-level* kUnjustifiable
  /// result — the completed exhaustive proof — is recorded back.  Sub-level
  /// kUnjustifiable results are never recorded: requirement-cycle pruning
  /// makes them valid only relative to the outer path.
  /// `pool` (optional) recycles FrameModels across recursion levels and
  /// faults; when null the justifier owns a private pool.
  DeterministicJustifier(const netlist::Circuit& c, const SearchLimits& limits,
                         state::StateStore* store = nullptr,
                         FrameModelPool* pool = nullptr);

  Outcome justify(const sim::State3& target, const util::Deadline& deadline);

  const SearchStats& stats() const { return stats_; }

 private:
  /// `path` holds the requirements of the enclosing recursion levels (each
  /// outlives the levels below it).
  Outcome justify_rec(const sim::State3& target, unsigned depth,
                      std::vector<const sim::State3*>& path,
                      const util::Deadline& deadline);

  const netlist::Circuit& c_;
  SearchLimits limits_;
  SearchStats stats_;
  state::StateStore* store_ = nullptr;  // not owned; may be null
  std::unique_ptr<FrameModelPool> own_pool_;  // pool-less fallback
  FrameModelPool* pool_;                      // never null after construction
};

}  // namespace gatpg::atpg
