// Width-generic (64·W slot) good/faulty-machine sequence simulator with a
// cache-conscious structure-of-arrays data layout.
//
// WideSimulator is the N-word generalization of SequenceSimulator (which is
// retained verbatim as the 64-slot golden reference): each of the 64·W
// packed slots is an independent simulation context, W being a runtime
// group width of 1..kMaxWideWords machine words per plane.  The semantic
// contract is bit-for-bit identical to SequenceSimulator — same ternary
// encoding, same event discipline, same override model — so any consumer
// can cross-check the two at width 1 slot for slot, and the fault simulator
// produces identical detections at every width.
//
// The hot-loop data layout differs deliberately:
//   * Node values live in two flat plane buffers (v1 then v0), `W` words
//     per node, rows laid out in *levelized topo order* (sources first,
//     then gates by ascending logic level) so a full-evaluation pass and
//     the level-ordered event drain walk memory forward.
//   * The event queue is a bump-allocated flat array partitioned by level
//     (CSR over the circuit's level histogram) instead of a
//     vector-of-vectors.
//   * Gate evaluation goes through the SIMD kernel table (sim/wide.h):
//     per-type branchless kernels, specialized scalar/AVX2/AVX-512 behind
//     one dispatch point.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "netlist/circuit.h"
#include "sim/logic3.h"
#include "sim/seqsim.h"
#include "sim/wide.h"

namespace gatpg::sim {

class WideSimulator {
 public:
  WideSimulator(const netlist::Circuit& c, unsigned words);

  const netlist::Circuit& circuit() const { return circuit_; }
  unsigned words() const { return nw_; }
  unsigned slots() const { return nw_ * 64; }

  /// Returns all flip-flops to X in every slot and clears node values.
  void reset();

  /// Overwrites one flip-flop's plane rows directly (`r1`/`r0`: nw words).
  void set_ff_rows(std::size_t ff_index, const std::uint64_t* r1,
                   const std::uint64_t* r0);

  // -- Fault injection (cf. SequenceSimulator) -------------------------------

  void add_output_override(netlist::NodeId n, bool stuck,
                           const WideMask& slot_mask);
  void add_input_override(netlist::NodeId n, unsigned pin, bool stuck,
                          const WideMask& slot_mask);
  void clear_overrides();
  void retain_override_slots(const WideMask& slot_mask);

  /// Per-slot activity gates over the installed overrides (the two-frame
  /// transition-fault mechanism) — semantics identical to
  /// SequenceSimulator::set_override_activity / set_latch_override_activity,
  /// widened to 64·W slots.  Default all-ones = plain stuck-at behavior.
  void set_override_activity(const WideMask& act);
  void set_latch_override_activity(const WideMask& act);

  // -- Simulation ------------------------------------------------------------

  /// Applies one wide input vector (`pi1`/`pi0`: nw words per PI, PI-major)
  /// and propagates events through the combinational logic.  Does not clock.
  void apply_wide(std::span<const std::uint64_t> pi1,
                  std::span<const std::uint64_t> pi0);

  /// Broadcast convenience: the same scalar vector in every slot.
  void apply_vector(const Vector3& v);

  /// Latches flip-flop next-state values and settles the logic.
  void clock();

  // -- Differential stepping (PROOFS, cf. SequenceSimulator) -----------------

  /// One differential frame: seeds every node from `good_values` (the good
  /// machine's settled slot-uniform frame, broadcast across all 64·W
  /// slots), overlays the per-slot faulty flip-flop state (`ff1`/`ff0`: nw
  /// words per flip-flop, flip-flop-major), re-forces stuck sources, wakes
  /// the fault sites, and event-propagates only the disturbed cones.
  void apply_differential(const std::vector<PackedV3>& good_values,
                          std::span<const std::uint64_t> ff1,
                          std::span<const std::uint64_t> ff0);

  /// Faulty next-state rows of flip-flop `ff_index` after the current frame
  /// (what clock() would latch), written to `o1`/`o0` (nw words each).
  void next_state_rows(std::size_t ff_index, std::uint64_t* o1,
                       std::uint64_t* o0) const;

  // -- Value access ----------------------------------------------------------

  const std::uint64_t* row1(netlist::NodeId n) const {
    return plane1_.data() + row_[n];
  }
  const std::uint64_t* row0(netlist::NodeId n) const {
    return plane0_.data() + row_[n];
  }
  V3 get(netlist::NodeId n, unsigned slot) const {
    const std::uint64_t m = 1ULL << (slot & 63);
    if (row1(n)[slot >> 6] & m) return V3::k1;
    if (row0(n)[slot >> 6] & m) return V3::k0;
    return V3::kX;
  }

  State3 state(unsigned slot = 0) const;

  std::uint64_t gate_evals() const { return gate_evals_; }
  void reset_gate_evals() { gate_evals_ = 0; }
  const char* kernel_name() const { return kernels_->name; }

 private:
  struct WMasks {
    WideMask one;   // slots forced to 1
    WideMask zero;  // slots forced to 0
  };

  static std::uint64_t in_key(netlist::NodeId n, unsigned pin) {
    return (static_cast<std::uint64_t>(n) << 16) | pin;
  }

  void apply_masks_rows(std::uint64_t* r1, std::uint64_t* r0, const WMasks& m,
                        const WideMask& act) const;
  bool rows_equal_masked(const std::uint64_t* r1, const std::uint64_t* r0,
                         const WMasks& m, const WideMask& act) const;
  void broadcast_into(netlist::NodeId n, V3 v);
  bool evaluate(netlist::NodeId n);
  void full_evaluate();
  void force_source_overrides();
  void mark_dirty() { first_vector_ = true; }

  // Bump-allocated level queue over the flat CSR bucket array.
  void schedule(netlist::NodeId n);
  void schedule_fanouts(netlist::NodeId n);
  void drain();

  const netlist::Circuit& circuit_;
  const WideKernels* kernels_;
  unsigned nw_;

  // SoA planes: nw_ words per node, rows in levelized topo order (row_[n]
  // is the word offset of node n's row in either plane).
  std::vector<std::uint64_t> plane1_;
  std::vector<std::uint64_t> plane0_;
  std::vector<std::uint32_t> row_;

  // Level-bucketed event queue: qbuf_ holds the scheduled nodes, level l's
  // bucket is qbuf_[qoff_[l] .. qoff_[l] + qfill_[l]).  Bucket capacities
  // are the per-level combinational node counts, so a bump store never
  // overflows and draining never allocates.
  std::vector<netlist::NodeId> qbuf_;
  std::vector<std::uint32_t> qoff_;
  std::vector<std::uint32_t> qfill_;
  std::vector<char> queued_;

  bool first_vector_ = true;
  std::uint64_t gate_evals_ = 0;
  WideMask act_;        // current-frame override activity
  WideMask act_latch_;  // next-frame (clocked Q) activity

  // Evaluation scratch, sized once at construction: fanin row-pointer
  // gather arrays, the input-override gather matrix, and the kernel output
  // row — no evaluation ever allocates.
  std::vector<const std::uint64_t*> fin1_;
  std::vector<const std::uint64_t*> fin0_;
  std::vector<std::uint64_t> ovr1_;
  std::vector<std::uint64_t> ovr0_;
  std::vector<std::uint64_t> out1_;
  std::vector<std::uint64_t> out0_;
  std::vector<std::uint64_t> ff_next_;  // clock() latch scratch (2 planes)

  std::unordered_map<netlist::NodeId, WMasks> out_over_;
  std::unordered_map<std::uint64_t, WMasks> in_over_;
  std::vector<char> node_has_in_over_;
  std::vector<netlist::NodeId> overridden_sources_;
};

}  // namespace gatpg::sim
