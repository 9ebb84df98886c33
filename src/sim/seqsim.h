// Good/faulty-machine sequence simulator, 64-way bit-parallel, event-driven.
//
// Each of the 64 packed slots is an independent simulation context (the GA
// uses one slot per candidate sequence; the PROOFS-style fault simulator
// uses one slot per fault).  Flip-flop state persists across
// apply_packed()/clock() calls; reset() returns all flip-flops to X,
// matching the power-up-unknown model used throughout the paper.
//
// Fault injection follows PROOFS: a stuck-at fault is modeled by forcing a
// pin to a constant in selected slots.  Overrides are expressed as 64-bit
// slot masks, so one simulator instance can carry a different fault in every
// slot (parallel-fault simulation) or the same fault in all slots (GA
// fitness evaluation of 64 candidate sequences against one fault).
//
// Three stepping modes are offered.  apply_packed()/clock() is the
// self-contained mode: the machine carries its own state and traces its own
// events from vector to vector.  sweep_packed()/latch() is the oblivious
// mode for high-activity workloads (the GA's 64 independent random
// candidates change nearly every gate each frame): one pass over a caller's
// gate list per frame, and a clock edge over a caller's flip-flop list that
// does not settle the logic the next sweep re-evaluates anyway.  The GA
// passes the depth-bounded goal cone of the flip-flops it scores, so the
// gates and flip-flops outside it go stale and are never read.
// apply_differential() is the PROOFS
// differential mode driven by FaultSimulator: the caller supplies the good
// machine's settled node values for the frame, the machine overlays the
// flip-flops whose faulty state departs from the good one and its fault
// overrides, and only the disturbed fanout cones are re-evaluated.  Between
// frames it resets only the nodes it wrote and those whose good value
// changed, and it names the flip-flops whose next state can depart from the
// good one, so a frame costs in proportion to the fault activity instead of
// to the circuit size.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "netlist/circuit.h"
#include "sim/eventsim.h"
#include "sim/logic3.h"

namespace gatpg::sim {

/// One input vector: a V3 per primary input, in Circuit::primary_inputs()
/// order.
using Vector3 = std::vector<V3>;
/// A test sequence: vectors applied on successive clock cycles.
using Sequence = std::vector<Vector3>;

/// A state assignment: a V3 per flip-flop, in Circuit::flip_flops() order
/// (kX = don't care).
using State3 = std::vector<V3>;

// -- 3-valued cube algebra ----------------------------------------------------
//
// A State3 doubles as a *cube*: the set of fully defined states compatible
// with its defined literals (kX = unconstrained).  The state-knowledge layer
// (state::StateStore) and the engines reason about cubes with these helpers.

/// True iff every state satisfying `stronger` also satisfies `weaker`:
/// each defined literal of `weaker` appears with the same value in
/// `stronger`.  The all-X cube subsumes everything (itself included); every
/// cube subsumes itself.  Note the direction: the *weaker* cube (fewer
/// literals, larger state set) subsumes the *stronger* one.
bool cube_subsumes(const State3& weaker, const State3& stronger);

/// Number of defined positions of `cube` whose literal `state` matches
/// exactly (an X in `state` does not match a defined literal).
unsigned cube_agreement(const State3& cube, const State3& state);

/// True iff the cube carries no literal at all (all-X).
bool cube_is_trivial(const State3& cube);

/// One flip-flop whose packed value departs from the good machine's in some
/// slot.  A differential machine's faulty state is the good state plus a
/// list of these.
struct FfPatch {
  std::uint32_t ff = 0;  ///< index into Circuit::flip_flops()
  PackedV3 value;
};

class SequenceSimulator {
 public:
  explicit SequenceSimulator(const netlist::Circuit& c);

  const netlist::Circuit& circuit() const { return circuit_; }

  /// Returns all flip-flops to X in every slot and clears node values.
  void reset();

  /// Overwrites the flip-flop state in every slot (broadcast).
  void set_state(const State3& state);
  /// Overwrites one flip-flop's packed value directly.
  void set_ff_packed(std::size_t ff_index, PackedV3 value);

  // -- Fault injection ------------------------------------------------------

  /// Forces the *output* of node n to `stuck` in the slots of `slot_mask`.
  void add_output_override(netlist::NodeId n, bool stuck,
                           std::uint64_t slot_mask);
  /// Forces fanin `pin` of node n to `stuck` in the slots of `slot_mask`
  /// (a fanout-branch fault: other fanouts of the driver are unaffected).
  void add_input_override(netlist::NodeId n, unsigned pin, bool stuck,
                          std::uint64_t slot_mask);
  void clear_overrides();
  bool has_overrides() const { return !out_over_.empty() || !in_over_.empty(); }
  /// Restricts every override to the slots of `slot_mask`, dropping fault
  /// injection for the rest (the fault simulator retires detected slots this
  /// way mid-sweep so they stop generating differential events).
  void retain_override_slots(std::uint64_t slot_mask);

  /// Per-slot *activity* gates over the installed overrides — the two-frame
  /// transition-fault mechanism.  An override only forces slots whose
  /// activity bit is set; inactive slots see the fault-free value.  The
  /// current-frame mask gates every combinational/source forcing applied
  /// during the frame (evaluate/apply/apply_differential); the latch mask
  /// gates the flip-flop output forcing that clock()/next_state_packed()
  /// latch *into the next frame* (callers advance it one frame ahead).
  /// Both default to all-ones, which reproduces plain stuck-at behavior
  /// bit-for-bit; changing a mask invalidates the event baseline.
  void set_override_activity(std::uint64_t act) {
    if (act_ == act) return;
    act_ = act;
    mark_dirty();
  }
  void set_latch_override_activity(std::uint64_t act) {
    if (act_latch_ == act) return;
    act_latch_ = act;
    mark_dirty();
  }

  // -- Simulation -----------------------------------------------------------

  /// Applies one packed input vector (one PackedV3 per PI) and propagates
  /// events through the combinational logic.  Does not clock.
  void apply_packed(const std::vector<PackedV3>& pi_values);

  /// Applies one packed input vector and evaluates each gate of `gates`
  /// once, in list order, regardless of which inputs changed.  `gates` must
  /// list every gate after its combinational fanins, and each listed gate's
  /// combinational fanins must be listed too (a fan-in-closed cone, in
  /// evaluation order); those gates then settle exactly as after
  /// apply_packed(), and the rest keep stale values.  Does not clock.
  void sweep_packed(std::span<const PackedV3> pi_values,
                    std::span<const netlist::NodeId> gates);
  /// The whole circuit: every gate of topo_order().
  void sweep_packed(std::span<const PackedV3> pi_values) {
    sweep_packed(pi_values, circuit_.topo_order());
  }

  /// Broadcast convenience: applies the same scalar vector to all slots.
  void apply_vector(const Vector3& v);

  /// Latches flip-flop next-state values and schedules resulting activity
  /// for the next apply call.
  void clock();

  /// The clock() edge without its settle, on the flip-flops of `ff_indices`
  /// (indices into Circuit::flip_flops()): latches their next state and
  /// leaves the combinational logic stale, so only their reads are
  /// meaningful until the next sweep; a following apply_packed() evaluates
  /// every gate.  Listed flip-flops latch as one edge (one may feed
  /// another); the rest keep their value.
  void latch(std::span<const std::uint32_t> ff_indices);

  /// Applies every vector of a sequence (apply + clock each cycle).
  void run_sequence(const Sequence& seq);

  // -- Differential stepping (PROOFS) ---------------------------------------

  /// Starts a run of differential frames: seeds every node value from
  /// `good_values`, the good machine's settled values for the first frame.
  /// Until the next begin_differential(), the machine may be stepped only by
  /// apply_differential(), which relies on knowing every node it wrote.
  void begin_differential(const std::vector<PackedV3>& good_values);

  /// One differential frame.  First reseeds to `good_values` (the good
  /// machine's settled values for this frame, broadcast in all slots) by
  /// resetting the nodes the previous frame wrote and the nodes of
  /// `good_changed`, which must list every node whose good value changed
  /// since the previous frame (or since begin_differential(); repeats are
  /// harmless).  Then overlays `ff_state`, the flip-flops whose faulty value
  /// departs from the good one, re-forces stuck sources, wakes the fault
  /// sites, and event-propagates only the disturbed cones.  Afterwards
  /// value() reads are consistent faulty values for every node, and
  /// next_state_packed() yields the faulty next state of the flip-flops of
  /// touched_flip_flops(); the caller owns state persistence (clock() is not
  /// used in this mode).
  void apply_differential(const std::vector<PackedV3>& good_values,
                          std::span<const netlist::NodeId> good_changed,
                          std::span<const FfPatch> ff_state);

  /// After apply_differential(): the flip-flops whose next state may depart
  /// from the good machine's, each once — those whose D input the frame
  /// wrote and those carrying an injected fault.  Every other flip-flop
  /// latches its good next state.
  std::span<const std::uint32_t> touched_flip_flops() const {
    return touched_ffs_;
  }

  /// Faulty next-state value of flip-flop `ff_index` after the current
  /// frame: the settled D-input value with the flip-flop's own input/output
  /// fault masks applied — exactly what clock() would latch.
  PackedV3 next_state_packed(std::size_t ff_index) const;

  /// The full node-value array (the good machine's per-frame recording that
  /// seeds apply_differential on the faulty machines).
  const std::vector<PackedV3>& node_values() const { return values_; }

  /// Number of gate evaluations performed since construction or the last
  /// reset_gate_evals() — the fault simulator's primary cost metric.
  std::uint64_t gate_evals() const { return gate_evals_; }
  void reset_gate_evals() { gate_evals_ = 0; }

  PackedV3 value(netlist::NodeId n) const { return values_[n]; }
  V3 scalar_value(netlist::NodeId n, unsigned slot = 0) const {
    return values_[n].get(slot);
  }

  /// Current state (one slot).
  State3 state(unsigned slot = 0) const;

  /// Per-slot mask of "all flip-flops match `desired`".
  std::uint64_t state_match_mask(const State3& desired) const;

 private:
  struct Masks {
    std::uint64_t one = 0;   // slots forced to 1
    std::uint64_t zero = 0;  // slots forced to 0
  };

  static PackedV3 apply_masks(PackedV3 v, const Masks& m, std::uint64_t act) {
    const std::uint64_t one = m.one & act;
    const std::uint64_t zero = m.zero & act;
    const std::uint64_t touched = one | zero;
    v.v1 = (v.v1 & ~touched) | one;
    v.v0 = (v.v0 & ~touched) | zero;
    return v;
  }

  static std::uint64_t in_key(netlist::NodeId n, unsigned pin) {
    return (static_cast<std::uint64_t>(n) << 16) | pin;
  }

  PackedV3 gate_value(netlist::NodeId n);
  bool evaluate(netlist::NodeId n);
  void compute_next_state();
  void force_source_overrides();
  void mark_dirty();
  void note_override_ff(netlist::NodeId n);

  const netlist::Circuit& circuit_;
  std::vector<PackedV3> values_;
  LevelQueue queue_;
  bool first_vector_ = true;
  std::uint64_t act_ = ~0ULL;        // current-frame override activity
  std::uint64_t act_latch_ = ~0ULL;  // next-frame (clocked Q) activity
  std::uint64_t gate_evals_ = 0;
  // Scratch for the input-override slow path of evaluate(), sized to the
  // widest gate once so no evaluation allocates.
  std::vector<PackedV3> eval_ins_;
  std::vector<netlist::NodeId> eval_idx_;
  // Scratch for the two-phase clock edge (a flip-flop may feed another).
  std::vector<PackedV3> next_state_;
  // apply_vector()'s broadcast input vector.
  std::vector<PackedV3> pi_scratch_;

  std::unordered_map<netlist::NodeId, Masks> out_over_;
  std::unordered_map<std::uint64_t, Masks> in_over_;
  // Per-node "has an entry in out_over_ / in_over_": keeps the hash lookups
  // off the evaluation of fault-free gates.
  std::vector<char> node_has_out_over_;
  std::vector<char> node_has_in_over_;
  // Overridden nodes that are not evaluated combinationally (PIs, DFF
  // outputs, constants) must be re-forced whenever their value is set.
  std::vector<netlist::NodeId> overridden_sources_;
  // Flip-flops carrying an input or output override (may repeat).
  std::vector<std::uint32_t> override_ffs_;

  // Differential mode: the nodes the last frame wrote (the only ones besides
  // the good machine's changes that can differ from the good values), the
  // flip-flops whose next state it may have disturbed, and a per-flip-flop
  // mark that keeps that list free of repeats (all clear between frames).
  std::vector<netlist::NodeId> written_;
  std::vector<std::uint32_t> touched_ffs_;
  std::vector<char> ff_mark_;
};

}  // namespace gatpg::sim
