// Time-frame-expanded circuit model for the deterministic engine.
//
// The sequential circuit is unrolled into `frame_count` copies of its
// combinational logic.  Assignable variables are the primary inputs of every
// frame plus the frame-0 flip-flop outputs ("pseudo inputs" — the state the
// justification phase must later produce).  Flip-flop outputs in frame t+1
// take the value of the flip-flop's D fanin in frame t.
//
// Two three-valued planes (good and faulty) are kept per frame.  When a
// fault is installed, the faulty plane injects it in every frame (a stuck-at
// fault is permanent).  Pseudo-input and PI assignments write both planes —
// the justified state is required of both machines, matching the paper's
// two-goal GA fitness (see DESIGN.md for the soundness discussion: every
// claimed detection is re-verified by the independent fault simulator).
//
// Transition faults (fault::FaultModel) inject *conditionally*: the forcing
// in frame f applies only when the good plane of the fault's launch line
// held the transition's initial value in frame f - skew (skew 1, except 2
// for flip-flop D-pin faults, whose forcing surfaces through the latch one
// frame later).  An X launch merges the forced and fault-free values
// (agreeing values survive, disagreement decays to X) — a sound
// over-approximation of "maybe forced"; frames before the skew horizon are
// unconditionally fault-free (power-up cannot launch).  Propagation tracks
// the extra cross-frame dependency with an explicit launch-line hook in
// update_cell.
//
// Every assignment propagates through a levelized event queue: only nodes
// whose value actually changes are re-evaluated, fanouts are scheduled at
// (frame, level) keys, and changes cross DFF boundaries into later frames.
// Each changed cell is recorded on a trail, so DecisionStack backtracking
// restores the exact previous state by popping trail entries instead of
// re-simulating the window.  The D-frontier, po_has_d() and
// d_reaches_ff_input() are maintained as side effects of propagation.  A
// decision re-evaluates the kept fanouts of every cell it changes: in a full
// model, up to the assignment's whole fanout cone over the window; in a
// goal-cone model (fault-free, one frame; see reset()), only the part of it
// inside the fan-in cone of the goal nodes.
//
// Both planes live in one flat byte buffer indexed by cell(frame, node) —
// good in bits 0..1, faulty in bits 2..3 — so composite() and the
// D-detection summaries are single loads, and combinational gates evaluate
// both planes at once through a per-gate-type branchless kernel table.
// Fault-free models mirror the good pair into the faulty pair so the decode
// is branch-free.
//
// tests/test_frame_model_incr.cpp checks the model against a naive
// recompute-everything oracle (tests/helpers/reference_frames.h) after every
// step of randomized push/backtrack sessions over every registry circuit,
// goal-cone models on every cell of their cone.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "atpg/val5.h"
#include "fault/fault.h"
#include "netlist/circuit.h"
#include "netlist/fanin_walk.h"
#include "sim/seqsim.h"

namespace gatpg::atpg {

/// Implication-effort counters, accumulated over the model's lifetime
/// (reset() zeroes them).
struct FrameModelStats {
  // Combinational gate evaluations, counted per plane: 2 per evaluation in
  // a model with a fault, 1 without.
  std::uint64_t gate_evals = 0;
  // Event-queue pops; frame activation evaluates directly and pops none.
  std::uint64_t events = 0;
};

// -- Composite-byte cell encoding ---------------------------------------------
//
// One byte per (frame, node) cell holds both planes as two (v1, v0) bit
// pairs: bit0 = good.v1, bit1 = good.v0, bit2 = faulty.v1, bit3 = faulty.v0.
// Per plane: k1 → 01, k0 → 10, X → 00 (11 unused).  The 0x05/0x0A masks
// select the v1/v0 bits of both planes at once, so one AND/OR expression
// evaluates a gate on both planes simultaneously (see kCompGateTable).
namespace compbits {

inline constexpr std::uint8_t kV1Mask = 0x05;  // v1 bits of both planes
inline constexpr std::uint8_t kV0Mask = 0x0A;  // v0 bits of both planes

/// V3 → two-bit plane pattern.  Enum values are k0=0, k1=1, kX=2, so the
/// pattern is simply 2 - enum: k0→10, k1→01, kX→00.
constexpr std::uint8_t bits(sim::V3 v) {
  return static_cast<std::uint8_t>(2 - static_cast<int>(v));
}
/// Two-bit plane pattern → V3 (the unused 11 pattern never occurs).
constexpr sim::V3 v3(std::uint8_t b) { return static_cast<sim::V3>(2 - b); }

constexpr std::uint8_t pack(sim::V3 good, sim::V3 faulty) {
  return static_cast<std::uint8_t>(bits(good) | (bits(faulty) << 2));
}
/// Both planes equal — also used by fault-free models to mirror the good
/// plane into the faulty bits (multiplying the pattern by 0b0101).
constexpr std::uint8_t pack_same(sim::V3 v) {
  return static_cast<std::uint8_t>(bits(v) * kV1Mask);
}
constexpr sim::V3 good(std::uint8_t cell) {
  return v3(static_cast<std::uint8_t>(cell & 0x03));
}
constexpr sim::V3 faulty(std::uint8_t cell) {
  return v3(static_cast<std::uint8_t>((cell >> 2) & 0x03));
}

/// Byte-indexed Composite::is_d() — true for good/faulty = 1/0 (0b1001)
/// and 0/1 (0b0110).
inline constexpr std::array<bool, 16> kIsD = [] {
  std::array<bool, 16> t{};
  t[0b1001] = true;
  t[0b0110] = true;
  return t;
}();
/// Byte-indexed Composite::any_x() — true when either plane pair is 00.
inline constexpr std::array<bool, 16> kAnyX = [] {
  std::array<bool, 16> t{};
  for (int b = 0; b < 16; ++b) t[b] = (b & 0x03) == 0 || (b & 0x0C) == 0;
  return t;
}();

}  // namespace compbits

class FrameModel {
 public:
  /// `fault` may be empty (justification mode: good plane only).  `goals`
  /// restricts the model to a goal cone; see reset().
  FrameModel(const netlist::Circuit& c, std::optional<fault::Fault> fault,
             unsigned max_frames, std::span<const netlist::NodeId> goals = {});

  /// Reinitializes the model to the exact post-construction state for a
  /// (possibly different) fault / window cap / goal cone, reusing every
  /// buffer whose capacity suffices.  Bit-identical to constructing a fresh
  /// model; the pool below relies on this.  Stats are zeroed
  /// (buffer_grows() is not — it counts allocations over the object's whole
  /// lifetime).
  ///
  /// Non-empty `goals` (fault-free one-frame models only) keeps just the
  /// goal cone current: the goal nodes and their transitive frame-0 fan-in,
  /// which stops at PIs, flip-flop outputs and constants.  Cells in the cone
  /// hold exactly the values of a full model, since a three-valued node
  /// value depends only on its fan-in cone; cells outside it are
  /// unspecified.  Building the cone costs O(cone).
  void reset(std::optional<fault::Fault> fault, unsigned max_frames,
             std::span<const netlist::NodeId> goals = {});

  const netlist::Circuit& circuit() const { return circuit_; }
  bool has_fault() const { return fault_.has_value(); }
  const fault::Fault& fault() const { return *fault_; }
  const FrameModelStats& stats() const { return stats_; }
  /// Number of times a value/queue/frontier buffer actually had to grow —
  /// stays flat across reset() and window shrink/grow cycles once a model
  /// has seen its largest window (capacity is retained, never released).
  std::uint64_t buffer_grows() const { return buffer_grows_; }

  unsigned frame_count() const { return frame_count_; }
  unsigned max_frames() const { return max_frames_; }
  /// Grows the window by one frame; returns false at the cap.
  bool extend();
  /// Shrinks/grows the window (used when backtracking over extensions).
  void set_frame_count(unsigned n);

  // -- Assignable variables ---------------------------------------------
  void assign_pi(unsigned frame, std::size_t pi_index, sim::V3 v);
  sim::V3 pi_value(unsigned frame, std::size_t pi_index) const {
    return pi_assign_[pi_cell(frame, pi_index)];
  }

  void assign_state(std::size_t ff_index, sim::V3 v);
  void clear_state(std::size_t ff_index);
  sim::V3 state_value(std::size_t ff_index) const {
    return state_assign_[ff_index];
  }

  // -- Trail ---------------------------------------------------------------
  /// Position marker into the change trail.  Record a mark before a batch
  /// of assignments, then undo_to(mark) restores values *and* assignments
  /// to exactly the marked state without re-simulation.  Mark 0 is the
  /// post-construction (all-unassigned) state.
  std::size_t trail_mark() const { return trail_.size(); }
  void undo_to(std::size_t mark);

  // -- Values --------------------------------------------------------------
  // Values are maintained eagerly: every query of a kept cell (any cell of
  // a full model, a goal-cone cell of a restricted one) reflects all
  // assignments.
  sim::V3 good(unsigned frame, netlist::NodeId n) const {
    return compbits::good(comp_[cell(frame, n)]);
  }
  /// Fault-free models mirror the good pair into the faulty bits, so this
  /// equals good() there.
  sim::V3 faulty(unsigned frame, netlist::NodeId n) const {
    return compbits::faulty(comp_[cell(frame, n)]);
  }
  Composite composite(unsigned frame, netlist::NodeId n) const {
    const std::uint8_t b = comp_[cell(frame, n)];
    return {compbits::good(b), compbits::faulty(b)};
  }

  // -- Fault-effect queries --------------------------------------------------
  /// True if some primary output in some active frame carries D/D̄.
  bool po_has_d() const;
  /// True if some flip-flop D input carries D/D̄ in `frame`.
  bool d_reaches_ff_input(unsigned frame) const;

  /// D-frontier: gates with composite-X output and at least one D/D̄ fanin,
  /// over all active frames.  Returned as (frame, node) pairs in (frame,
  /// topological-position) order, independent of the order in which gates
  /// joined the frontier: callers sort it with unstable sorts, so any other
  /// order would make objective selection history-dependent.  The returned
  /// reference aliases a member buffer that the next d_frontier() call
  /// overwrites; copy it if it must survive further model mutation.
  struct FrontierGate {
    unsigned frame;
    netlist::NodeId node;
  };
  const std::vector<FrontierGate>& d_frontier() const;

  /// Extracts the PI assignments of all active frames as a test sequence
  /// (X where unassigned).
  sim::Sequence extract_vectors() const;
  /// Extracts the frame-0 pseudo-input requirements.
  sim::State3 extract_state() const;

  /// The frame-0 state with every assignment dropped back to X whose
  /// removal keeps `holds()` true, probed greedily in flip-flop index
  /// order.  Each probe is a trailed clear_state undone when `holds()`
  /// fails, and the model ends exactly as it began (same trail position),
  /// so a search running on it resumes unaffected.
  template <typename Holds>
  sim::State3 minimized_state(Holds&& holds) {
    const std::size_t base = trail_mark();
    for (std::size_t i = 0; i < state_assign_.size(); ++i) {
      if (state_assign_[i] == sim::V3::kX) continue;
      const std::size_t mark = trail_mark();
      clear_state(i);
      if (!holds()) undo_to(mark);
    }
    sim::State3 state = extract_state();
    undo_to(base);
    return state;
  }

 private:
  /// One undoable change: a value cell (kCell: `old` is its previous
  /// composite byte) or an assignment (kPi/kState: `old` is the previous
  /// V3).
  struct TrailEntry {
    enum Kind : std::uint8_t { kCell, kPi, kState };
    Kind kind;
    std::uint8_t old;
    unsigned frame;
    std::uint32_t index;  // node id (kCell) or PI/FF index
  };

  /// Computes the composite byte of (frame, node) from current assignments
  /// and fanin cells.  Adds to gate_evals once per plane evaluated (2 per
  /// combinational gate with a fault, 1 without), whatever the number of
  /// kernel calls.
  std::uint8_t compute_comp(unsigned frame, netlist::NodeId n);
  /// compute_comp for the fault-site node: applies the (possibly
  /// launch-gated) forcing at the faulted pin or output; the faulty plane
  /// of an input-pin fault is evaluated with that pin replaced.
  std::uint8_t compute_comp_faulted(unsigned frame, netlist::NodeId n);

  // Propagation machinery.
  void init_propagation();
  void enqueue(unsigned frame, netlist::NodeId n);
  void schedule_fanouts(unsigned frame, netlist::NodeId n);
  void propagate();
  /// Re-evaluates both planes of (frame, node).  On a change it trails the
  /// old byte, updates the summaries and (when `schedule`) enqueues the
  /// fanouts, so every cell write is undoable and reflected in po_has_d(),
  /// d_reaches_ff_input() and d_frontier().
  void update_cell(unsigned frame, netlist::NodeId n, bool schedule);
  /// Directly recomputes every node of one (newly activated) frame.
  void recompute_frame(unsigned frame);
  /// Transition-fault launch test for a forcing applied in `frame`:
  /// 0 = inactive (fault-free value), 1 = active (forced value),
  /// 2 = X launch (merge the forced and fault-free values).
  int launch_state(unsigned frame) const;
  /// Updates the fault-effect summaries and frontier membership for one
  /// cell's transition between composite bytes `before` and `after`.
  void note_composite_change(unsigned frame, netlist::NodeId n,
                             std::uint8_t before, std::uint8_t after);
  void refresh_frontier(unsigned frame, netlist::NodeId gate) const;
  /// Stamps the goal cone of `goals` and lists it in cone_order_.
  void build_cone(std::span<const netlist::NodeId> goals);
  bool kept(netlist::NodeId n) const {
    return !restricted_ || cone_stamp_[n] == cone_epoch_;
  }
  std::size_t cell(unsigned frame, netlist::NodeId n) const {
    return static_cast<std::size_t>(frame) * node_stride_ + n;
  }
  std::size_t pi_cell(unsigned frame, std::size_t pi_index) const {
    return static_cast<std::size_t>(frame) * pi_stride_ + pi_index;
  }
  /// Start of the (frame, level) event bucket inside qbuf_.
  std::size_t bucket_base(unsigned frame, std::uint32_t level) const {
    return static_cast<std::size_t>(frame) * node_stride_ +
           level_base_[level];
  }

  /// fault_node_ sentinel for fault-free models (no node compares equal).
  static constexpr netlist::NodeId kNoFaultNode = ~netlist::NodeId{0};

  const netlist::Circuit& circuit_;
  std::optional<fault::Fault> fault_;
  // Hot-path caches (reset() keeps them current): the fault site (sentinel
  // when fault-free) and the [frame × node] / [frame × pi] row strides.
  netlist::NodeId fault_node_ = kNoFaultNode;
  // Transition-fault caches (reset() keeps them current): whether the
  // installed fault is a transition fault, the launch line whose good-plane
  // value gates the forcing, and the launch→forcing frame skew (2 for
  // flip-flop D-pin faults, whose forcing surfaces through the latch one
  // frame later; 1 otherwise).
  bool trans_ = false;
  netlist::NodeId launch_line_ = kNoFaultNode;
  unsigned launch_skew_ = 1;
  std::size_t node_stride_ = 0;
  std::size_t pi_stride_ = 0;
  unsigned max_frames_ = 1;
  unsigned frame_count_ = 1;
  FrameModelStats stats_;
  std::uint64_t buffer_grows_ = 0;

  // Goal-cone restriction (see reset()): node n is kept iff
  // cone_stamp_[n] == cone_epoch_, so starting a new cone is one epoch bump
  // instead of clearing a node-sized set.  cone_order_ lists the cone with
  // every gate after its fanins (the activation order of recompute_frame);
  // cone_walk_ is netlist::walk_fanin's stack.
  bool restricted_ = false;
  std::uint32_t cone_epoch_ = 0;
  std::vector<std::uint32_t> cone_stamp_;  // [node]
  std::vector<netlist::NodeId> cone_order_;
  netlist::FaninStack cone_walk_;

  // Assignments.
  std::vector<sim::V3> pi_assign_;     // [frame × pi]
  std::vector<sim::V3> state_assign_;  // [ff]

  // One composite byte per cell(frame, node).
  std::vector<std::uint8_t> comp_;
  // Per-node both-plane gate kernels (circuit-static).
  using CompGateFn = std::uint8_t (*)(const std::uint8_t*,
                                      const netlist::NodeId*, std::size_t);
  std::vector<CompGateFn> comp_fn_;

  // Change trail.
  std::vector<TrailEntry> trail_;

  // Event queue: a bump-allocated CSR bucket arena keyed by
  // frame * (max_level + 1) + level.  Each frame's buckets partition one
  // node_count-sized slab of qbuf_ (bucket capacity = number of nodes on
  // that level, so appends never overflow); qfill_ counts occupancy.  Keys
  // strictly increase during propagation (fanouts are deeper in the same
  // frame or sources of a later frame), so one ascending cursor drains it.
  std::vector<netlist::NodeId> qbuf_;   // [frame × node] arena
  std::vector<std::uint32_t> qfill_;    // [frame × level] occupancy
  std::vector<std::uint32_t> level_base_;  // level → node-slab offset
  std::vector<std::uint32_t> node_level_;  // node → level (enqueue cache)
  std::vector<std::uint32_t> node_slab_;   // node → level_base_[level(node)]
  std::vector<char> in_queue_;          // [frame × node]
  std::size_t queue_cursor_ = 0;
  std::size_t queue_pending_ = 0;
  std::size_t level_stride_ = 1;  // max_level + 1

  // Incrementally maintained fault-effect summaries (fault mode only).
  std::vector<int> po_d_count_;    // per frame: POs carrying D/D̄
  std::vector<int> ffin_d_count_;  // per frame: FF D inputs carrying D/D̄
  std::vector<std::uint32_t> ff_consumer_count_;  // DFFs fed by node n
  std::vector<std::uint32_t> topo_pos_;  // node → position in topo_order
  // D-frontier membership: bitmap + per-frame append-only member arena
  // (each gate listed at most once per frame, so node_count-sized slabs
  // suffice), compacted and sorted lazily on query (hence mutable).
  mutable std::vector<char> in_frontier_;  // [frame × node]
  mutable std::vector<char> listed_;       // [frame × node]
  mutable std::vector<netlist::NodeId> frontier_arena_;  // [frame × node]
  mutable std::vector<std::uint32_t> frontier_fill_;     // per frame
  // d_frontier() output buffer (reused across calls; no per-query allocs).
  mutable std::vector<FrontierGate> frontier_out_;
};

class FrameModelPool;

/// Owning or pool-borrowed FrameModel handle.  Pool-borrowed handles return
/// the model to the pool's free list on destruction; standalone handles own
/// and delete it.  Handles must not outlive the pool that issued them.
class FrameModelHandle {
 public:
  FrameModelHandle() = default;
  FrameModelHandle(FrameModelHandle&& o) noexcept
      : model_(o.model_), pool_(o.pool_) {
    o.model_ = nullptr;
    o.pool_ = nullptr;
  }
  FrameModelHandle& operator=(FrameModelHandle&& o) noexcept {
    if (this != &o) {
      release();
      model_ = o.model_;
      pool_ = o.pool_;
      o.model_ = nullptr;
      o.pool_ = nullptr;
    }
    return *this;
  }
  FrameModelHandle(const FrameModelHandle&) = delete;
  FrameModelHandle& operator=(const FrameModelHandle&) = delete;
  ~FrameModelHandle() { release(); }

  FrameModel* get() const { return model_; }
  FrameModel& operator*() const { return *model_; }
  FrameModel* operator->() const { return model_; }
  explicit operator bool() const { return model_ != nullptr; }

 private:
  friend class FrameModelPool;
  FrameModelHandle(FrameModel* m, FrameModelPool* pool)
      : model_(m), pool_(pool) {}
  void release();

  FrameModel* model_ = nullptr;
  FrameModelPool* pool_ = nullptr;  // null: standalone (handle deletes)
};

/// Recycles FrameModels across faults: acquire() pops a free model and
/// reset()s it (bit-identical to fresh construction) instead of rebuilding
/// every buffer per target.  Single-circuit, single-threaded — matches the
/// deterministic engines' serial per-fault loop.  constructions() exposes
/// how many models were actually built, so sessions can prove reuse.
class FrameModelPool {
 public:
  explicit FrameModelPool(const netlist::Circuit& c) : circuit_(c) {}

  /// `goals` as in FrameModel::reset().
  FrameModelHandle acquire(std::optional<fault::Fault> fault,
                           unsigned max_frames,
                           std::span<const netlist::NodeId> goals = {}) {
    ++acquires_;
    ++outstanding_;
    if (outstanding_ > peak_outstanding_) peak_outstanding_ = outstanding_;
    if (free_.empty()) {
      ++constructions_;
      all_.push_back(std::make_unique<FrameModel>(circuit_, std::move(fault),
                                                  max_frames, goals));
      return {all_.back().get(), this};
    }
    FrameModel* m = free_.back();
    free_.pop_back();
    m->reset(std::move(fault), max_frames, goals);
    return {m, this};
  }

  /// Pool-less fallback: a handle that owns a freshly built model.
  static FrameModelHandle standalone(
      const netlist::Circuit& c, std::optional<fault::Fault> fault,
      unsigned max_frames, std::span<const netlist::NodeId> goals = {}) {
    return {new FrameModel(c, std::move(fault), max_frames, goals), nullptr};
  }

  const netlist::Circuit& circuit() const { return circuit_; }
  std::uint64_t constructions() const { return constructions_; }
  std::uint64_t acquires() const { return acquires_; }
  /// Models owned by the pool (free or checked out).
  std::size_t inventory() const { return all_.size(); }

  /// Handles currently checked out.
  std::size_t outstanding() const { return outstanding_; }

  /// Resets the peak-outstanding watermark; subsequent acquires raise it
  /// again.  HybridEngine brackets each target with
  /// begin_peak_window()/peak_outstanding() to account pool demand in a
  /// lane-count-independent way.
  void begin_peak_window() { peak_outstanding_ = outstanding_; }

  /// Highest outstanding() seen since the last begin_peak_window().
  std::size_t peak_outstanding() const { return peak_outstanding_; }

 private:
  friend class FrameModelHandle;
  void release(FrameModel* m) {
    free_.push_back(m);
    --outstanding_;
  }

  const netlist::Circuit& circuit_;
  std::vector<std::unique_ptr<FrameModel>> all_;
  std::vector<FrameModel*> free_;
  std::uint64_t constructions_ = 0;
  std::uint64_t acquires_ = 0;
  std::size_t outstanding_ = 0;
  std::size_t peak_outstanding_ = 0;
};

inline void FrameModelHandle::release() {
  if (!model_) return;
  if (pool_ != nullptr) {
    pool_->release(model_);
  } else {
    delete model_;
  }
  model_ = nullptr;
  pool_ = nullptr;
}

}  // namespace gatpg::atpg
