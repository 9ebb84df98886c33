// Forward deterministic engine: fault excitation and fault-effect
// propagation over expanded time frames (the HITEC-style front end shared by
// both GA-HITEC and the HITEC baseline).
//
// The fault is excited in time frame 0 and its effects are propagated — in
// frame 0 or across successive frames through flip-flops — until some
// primary output carries D/D̄.  PI assignments in frames 0..k become the
// excitation/propagation vectors; assignments to the frame-0 pseudo state
// become the *required state* handed to state justification (genetic in the
// hybrid's early passes, deterministic later).
//
// next_solution() enumerates alternative excitation/propagation choices: a
// returned solution that later fails justification is treated as a conflict
// and the search resumes (the backtrack loop in the paper's Fig. 1).
// Exhausting the search space without ever clipping on a resource limit
// proves the fault untestable (state variables are free decision variables,
// so exhaustion covers every reachable *and* unreachable state).
//
// Transition faults launch over two frames: the engine normalizes the
// launch to frames (0, 1) — the driver must hold the initial value in frame
// 0 and the final value in frame 1 (WLOG for detection, since the frame-0
// pseudo state is free) — and propagates the conditionally injected effect
// exactly like a stuck-at fault.  The normalization prunes the search
// space, so exhaustion never claims an untestability proof for a transition
// fault: next_solution() reports kExhausted (clipped) instead of
// kUntestable.
#pragma once

#include <memory>

#include "atpg/limits.h"
#include "atpg/podem.h"
#include "util/stopwatch.h"

namespace gatpg::atpg {

/// Shared, immutable distance-to-observation table (see
/// observation_distances below).  The table depends only on the circuit, so
/// sessions compute it once and hand it to every ForwardEngine they build
/// instead of re-running the sweep per targeted fault.
using ObsDistances = std::shared_ptr<const std::vector<std::uint32_t>>;

enum class ForwardStatus {
  kSolved,      // vectors()/required_state() describe a candidate test
  kUntestable,  // search space exhausted with no limit clipped, no solution
  kExhausted,   // no more solutions (some were returned earlier, or clipped)
  kAborted,     // a resource limit stopped the search
};

class ForwardEngine {
 public:
  /// `obs_dist` optionally shares a precomputed observation-distance table
  /// (share_observation_distances); when null the engine computes its own.
  /// `pool` optionally recycles FrameModels across per-fault engines
  /// (sessions build one ForwardEngine per target; the pool makes that a
  /// reset instead of a reallocation); when null the engine builds its own
  /// model, which is bit-identical to a pooled one.
  ForwardEngine(const netlist::Circuit& c, const fault::Fault& f,
                const SearchLimits& limits, ObsDistances obs_dist = nullptr,
                FrameModelPool* pool = nullptr);

  /// Finds the next excitation/propagation solution; each call resumes the
  /// search after rejecting the previous solution.
  ForwardStatus next_solution(const util::Deadline& deadline);

  /// Valid after kSolved: vectors for frames 0..k (X where unassigned) and
  /// the frame-0 state requirement.  The requirement is *minimized*: every
  /// pseudo-input assignment whose removal still leaves D/D̄ on a primary
  /// output is dropped back to X (PODEM decisions binarize state variables
  /// even when the detection does not need them; a weaker requirement is
  /// strictly easier to justify and — by 3-valued monotonicity — still
  /// yields a valid test).  The greedy probes run on the search model
  /// under a trail mark and are undone before returning, so the search
  /// resumes exactly where it stood.
  sim::Sequence vectors() const { return model_.extract_vectors(); }
  sim::State3 required_state();

  /// Search statistics; gate_evals/events are synced from the model on
  /// access.
  const SearchStats& stats() const;
  const FrameModel& model() const { return model_; }

 private:
  bool excitation_conflict() const;
  bool excited_somewhere() const;
  /// Transition faults: true when frames (t, t+1) of the driver hold the
  /// defined initial→final launch pair (X is conservatively "no pair").
  bool launch_pair_at(unsigned t) const;
  bool pick_objective(Objective& obj);
  bool d_pending_at_ff_input() const;
  /// Fills and returns a member buffer (no allocation per decision); the
  /// next call overwrites it.
  std::vector<FrameModel::FrontierGate>& full_frontier() const;

  const netlist::Circuit& c_;
  fault::Fault fault_;
  SearchLimits limits_;
  FrameModelHandle model_h_;
  FrameModel& model_;
  DecisionStack stack_;
  mutable SearchStats stats_;
  netlist::NodeId driver_;  // node whose good value excites the fault
  ObsDistances obs_dist_;   // static distance-to-observation (shared)
  mutable std::vector<FrameModel::FrontierGate> frontier_scratch_;
  bool started_ = false;
  bool any_solution_ = false;
};

/// Static per-node distance to an observation point (levels to the nearest
/// PO, crossing flip-flops at a high penalty), used to order D-frontier
/// gates.  Exposed for tests.
std::vector<std::uint32_t> observation_distances(const netlist::Circuit& c);

/// observation_distances wrapped for sharing across many ForwardEngines.
ObsDistances share_observation_distances(const netlist::Circuit& c);

}  // namespace gatpg::atpg
