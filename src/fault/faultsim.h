// PROOFS-style sequential fault simulator (stuck-at and transition faults).
//
// Faults are packed 64 to a word (one slot each, cf. Niermann/Cheng/Patel,
// "PROOFS: a fast, memory-efficient sequential circuit fault simulator");
// each group shares one bit-parallel event-driven machine whose slots carry
// the per-fault circuit values.  Faulty flip-flop state persists across
// run() calls, so the simulator models one continuous test session exactly
// the way the test generators extend the test set.  Detection is recorded
// when a primary output has a defined good value and the opposite defined
// faulty value (X outputs never detect — the standard pessimistic rule).
//
// The engine is the PROOFS differential design.  The good machine is
// simulated once per window of vectors, recording its settled node values per
// frame; each fault group's machine is then seeded from the good values every
// vector and only the fault-site and state differences are propagated
// event-driven through their fanout cones.  Before simulating a group for a
// vector, a screen checks which slots are excited at their fault site by the
// good values or carry parked fault effects in their persisted state — a group
// with no such slot skips the vector entirely (this is where late-ATPG time
// goes, when only a handful of hard faults remain).  At every window boundary
// the still-undetected faults are repacked into dense 64-slot groups in stable
// fault-index order, so grouping, results, and detection order are
// deterministic and thread-count-independent.  The naive full-sweep
// simulator it is tested against is test::FullSweepFaultSim in tests/helpers.
//
// The 64-fault groups are independent, so run() and what_if() fan them out
// across the shared worker pool (util::parallel), one thread-local
// SequenceSimulator per lane.  Per-group detections are merged serially in
// group order, so the returned lists and all member state are bit-identical
// to the serial sweep for any thread count (threads = 1 runs the groups
// inline, in order).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "sim/seqsim.h"
#include "util/fields.h"
#include "util/parallel.h"

namespace gatpg::fault {

/// Engine options.  `parallel` is first so brace-initialization with a bare
/// thread count ({4}) keeps meaning "4 threads".
struct FaultSimConfig {
  util::ParallelConfig parallel;
  /// Vectors per differential window: the good machine is recorded and the
  /// group sweep advanced window by window, with detected faults repacked
  /// out of the dense 64-slot groups at every boundary.  Also bounds the
  /// good-frame recording memory (window × nodes × 16 bytes).
  unsigned window = 32;
};

/// Cost and effectiveness counters, accumulated across run()/what_if()
/// calls; reset with reset_stats().  All counts are deterministic and
/// thread-count-independent.
struct SimStats {
  std::uint64_t gate_evals = 0;       ///< faulty-machine gate evaluations
  std::uint64_t good_gate_evals = 0;  ///< good-machine gate evaluations
  std::uint64_t frames = 0;           ///< good-machine vectors simulated
  std::uint64_t group_vectors = 0;    ///< (group, vector) pairs examined
  std::uint64_t group_vectors_skipped = 0;  ///< screened out entirely
  std::uint64_t groups_repacked = 0;  ///< dense rebuilds after detections

  double skip_rate() const {
    return group_vectors == 0
               ? 0.0
               : static_cast<double>(group_vectors_skipped) /
                     static_cast<double>(group_vectors);
  }
  /// Field list (util/fields.h), in declaration order.
  static constexpr auto fields() {
    using S = SimStats;
    return std::make_tuple(
        util::Field{"gate_evals", &S::gate_evals},
        util::Field{"good_gate_evals", &S::good_gate_evals},
        util::Field{"frames", &S::frames},
        util::Field{"group_vectors", &S::group_vectors},
        util::Field{"group_vectors_skipped", &S::group_vectors_skipped},
        util::Field{"groups_repacked", &S::groups_repacked});
  }
  SimStats& operator+=(const SimStats& o) {
    util::for_each_field([](auto, auto& x, auto y) { x += y; }, *this, o);
    return *this;
  }
  bool operator==(const SimStats&) const = default;
};
static_assert(util::fields_cover<SimStats>());

class FaultSimulator {
 public:
  FaultSimulator(const netlist::Circuit& c, std::vector<Fault> faults,
                 FaultSimConfig config = {});

  /// Simulates `seq` as a continuation of everything simulated so far.
  /// Returns the indices (into faults()) of faults newly detected by it.
  std::vector<std::size_t> run(const sim::Sequence& seq);

  /// Returns machines to the power-up all-X state but keeps detection flags.
  void reset_machines();
  /// Full reset: machines and detection flags.
  void reset_all();

  const std::vector<Fault>& faults() const { return faults_; }
  const std::vector<char>& detected() const { return detected_; }
  std::size_t detected_count() const { return num_detected_; }

  /// Good-machine state after everything simulated so far.
  sim::State3 good_state() const { return good_.state(0); }

  /// Optional good-state harvest: when set, run() appends the good machine's
  /// flip-flop state after each vector it simulates (the post-clock state),
  /// one State3 per vector of the sequence.  The non-mutating what-if paths
  /// never touch the sink.  Not owned; clear with nullptr.  The session
  /// layer uses this to feed the StateStore's reachable-state log.
  void set_good_state_sink(std::vector<sim::State3>* sink) {
    good_sink_ = sink;
  }

  /// Persisted faulty flip-flop state of one fault (the parked fault
  /// effects the differential screen tests against the good state).
  const sim::State3& fault_state(std::size_t fault_index) const {
    return faulty_state_[fault_index];
  }

  /// Persisted good-machine value of the fault's launch line after the last
  /// frame simulated by run() — the two-frame transition-fault launch
  /// anchor carried across run() calls (kX after reset: a transition fault
  /// is inactive in the power-up frame).  Meaningful for any fault; only
  /// transition faults consume it.  Not serialized: snapshot resume replays
  /// the committed segments, which rebuilds it exactly.
  sim::V3 launch_prev(std::size_t fault_index) const {
    return launch_prev_[fault_index];
  }

  const FaultSimConfig& config() const { return config_; }
  const SimStats& stats() const { return stats_; }
  void reset_stats() { stats_ = SimStats{}; }
  /// Overwrites the accumulated counters.  Snapshot resume rebuilds the
  /// machines by replaying the committed segments — which reproduces the
  /// run() costs exactly — but what-if costs are not replayable, so the
  /// session restores the checkpointed totals wholesale afterwards.
  void restore_stats(const SimStats& s) { stats_ = s; }

  /// Non-mutating what-if: would appending `seq` to the session detect
  /// fault `fault_index`?  Simulates copies of the good machine and of that
  /// fault's machine; the session state is untouched.  The test generators
  /// verify every candidate test this way before committing it.
  bool would_detect(std::size_t fault_index, const sim::Sequence& seq) const;

  /// The same check against explicit machine state: would `seq`, applied to
  /// a copy of `good_start` and a fresh faulty machine for `f` seeded with
  /// `faulty_state`, produce a good/faulty PO difference?  Pure function of
  /// its arguments — the speculative targeting lanes call it against an
  /// immutable epoch snapshot instead of the live session simulator.
  /// For transition faults, `launch_prev` is the good value of the fault's
  /// launch line in the frame preceding `seq` (pass launch_prev() of the
  /// session snapshot; the kX default means "no launch pending", which is
  /// the power-up semantics).  Ignored for stuck-at faults.
  static bool would_detect_from(const netlist::Circuit& c,
                                const sim::SequenceSimulator& good_start,
                                const sim::State3& faulty_state, const Fault& f,
                                const sim::Sequence& seq,
                                sim::V3 launch_prev = sim::V3::kX);

  /// The live good machine (for snapshotting by the speculative targeting
  /// layer; treat as read-only).
  const sim::SequenceSimulator& good_machine() const { return good_; }

  /// Bulk non-mutating what-if over a fault subset, 64 faults per packed
  /// machine: how many of `fault_indices` would `seq` detect, and how many
  /// of the rest would it leave a fault effect on at some flip-flop
  /// (good/faulty both defined and different at sequence end)?  This is the
  /// fitness kernel of the simulation-based test generators (GATEST/CRIS
  /// style), where partial credit for driving fault effects into the state
  /// guides the search toward eventual detections.  Reuses the lane-local
  /// machines, so concurrent calls on one FaultSimulator are not allowed
  /// (no caller does that; the engines grade candidates serially).
  struct WhatIf {
    unsigned detected = 0;
    unsigned state_effects = 0;
  };
  WhatIf what_if(std::span<const std::size_t> fault_indices,
                 const sim::Sequence& seq) const;

  /// Convenience for single-fault queries (used heavily in tests): whether
  /// `seq` run from power-up detects `f`.
  static bool detects(const netlist::Circuit& c, const Fault& f,
                      const sim::Sequence& seq);

 private:
  /// One detection event inside a sweep: `pos` indexes the sweep's fault
  /// list, `t` is the global frame.  Sorting by (pos / 64, t, pos) gives the
  /// order of a plain group-by-group sweep — group of origin, then frame,
  /// then slot — regardless of windowing and repacking.
  struct Detection {
    std::uint32_t pos = 0;
    std::uint32_t t = 0;
  };

  /// Per-lane scratch: the group machine plus packed state and counters,
  /// owned exclusively by one lane of the worker pool during a sweep.
  struct Lane {
    std::unique_ptr<sim::SequenceSimulator> machine;
    std::vector<sim::PackedV3> ff;  ///< per-slot faulty present state
    SimStats stats;
  };

  /// The differential core shared by run() and what_if(): advances `good`
  /// over `seq` window by window and sweeps the faults of `fault_indices`
  /// differentially against it.  `states` (one per index) and `live` are
  /// read and updated in place; detections are appended unordered by group.
  /// `launch` (one V3 per index) carries the transition-fault launch anchor:
  /// on entry the good value of each fault's launch line in the frame
  /// preceding `seq`, on exit its value in the last frame of `seq` (run()
  /// seeds it from and persists it back to launch_prev_; what_if discards
  /// the local copy, matching its non-mutating contract).  `good_sink`, when
  /// non-null, receives the good machine's post-clock state for every vector
  /// (run() forwards good_sink_; what_if passes nullptr).
  void simulate_differential(sim::SequenceSimulator& good,
                             const std::vector<std::size_t>& fault_indices,
                             const sim::Sequence& seq,
                             std::vector<sim::State3>& states,
                             std::vector<sim::V3>& launch,
                             std::vector<char>& live,
                             std::vector<Detection>& detections,
                             std::vector<sim::State3>* good_sink) const;

  sim::SequenceSimulator& lane_machine(unsigned lane) const;
  void ensure_lanes(unsigned lanes) const;
  /// Serially folds the per-lane counters and machine eval counts into
  /// stats_ after a parallel sweep (sums are schedule-independent).
  void drain_lane_stats(unsigned lanes) const;

  const netlist::Circuit& c_;
  std::vector<Fault> faults_;
  FaultSimConfig config_;
  /// True iff any fault in faults_ is a transition fault — every
  /// launch-tracking branch is gated on this so the pure stuck-at paths stay
  /// instruction-for-instruction identical to the pre-fault-model engine.
  bool any_transition_ = false;
  std::vector<char> detected_;
  std::size_t num_detected_ = 0;
  sim::SequenceSimulator good_;
  // One group machine (+ scratch) per lane, created on first use and reused
  // across run()/what_if() calls; lane 0 is the (only) machine of the
  // serial path.  Mutable: what_if is logically const but reuses them.
  mutable std::vector<Lane> lanes_;
  std::vector<sim::State3> faulty_state_;  // one per fault
  std::vector<sim::V3> launch_prev_;       // one per fault (see launch_prev())
  mutable SimStats stats_;
  std::vector<sim::State3>* good_sink_ = nullptr;
};

}  // namespace gatpg::fault
