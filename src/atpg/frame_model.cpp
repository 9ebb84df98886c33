#include "atpg/frame_model.h"

#include <algorithm>
#include <cassert>

namespace gatpg::atpg {

using netlist::GateType;
using netlist::NodeId;
using sim::V3;

// -- Gate kernels -------------------------------------------------------------
//
// Each kernel folds a gate over the composite bytes of its fanins, producing
// both planes of the output byte in one pass.  The 0x05/0x0A masks pick the
// v1/v0 bits of both (v1, v0) pairs at once, so the ternary AND/OR/NOT
// algebra runs on good and faulty simultaneously:
//
//   and: v1 = a.v1 & b.v1            or: v1 = a.v1 | b.v1
//        v0 = a.v0 | b.v0                v0 = a.v0 & b.v0
//   not: swap the v1/v0 bit of each pair
//
// (0 dominates AND through the v0 bit, 1 dominates OR through the v1 bit,
// X = 00 stays X unless dominated — the same algebra PackedV3 uses wordwise.)
namespace {

constexpr std::uint8_t kV1 = compbits::kV1Mask;
constexpr std::uint8_t kV0 = compbits::kV0Mask;

inline std::uint8_t c_not(std::uint8_t a) {
  return static_cast<std::uint8_t>(((a & kV1) << 1) | ((a & kV0) >> 1));
}
inline std::uint8_t c_and(std::uint8_t a, std::uint8_t b) {
  return static_cast<std::uint8_t>((a & b & kV1) | ((a | b) & kV0));
}
inline std::uint8_t c_or(std::uint8_t a, std::uint8_t b) {
  return static_cast<std::uint8_t>(((a | b) & kV1) | (a & b & kV0));
}
inline std::uint8_t c_xor(std::uint8_t a, std::uint8_t b) {
  // Separate the "is 1" / "is 0" predicates of both pairs, then
  // 1 = (1,0)|(0,1) and 0 = (1,1)|(0,0) — X (neither bit) yields X.
  const std::uint8_t a1 = a & kV1;
  const std::uint8_t a0 = (a >> 1) & kV1;
  const std::uint8_t b1 = b & kV1;
  const std::uint8_t b0 = (b >> 1) & kV1;
  const std::uint8_t r1 = (a1 & b0) | (a0 & b1);
  const std::uint8_t r0 = (a1 & b1) | (a0 & b0);
  return static_cast<std::uint8_t>(r1 | (r0 << 1));
}

// Conditional forcing at the fault site: `ls` is launch_state() for
// transition faults, or a constant 1 for stuck-at faults (always forced).
inline V3 gate_transition(V3 normal, V3 forced, int ls) {
  if (ls == 1) return forced;
  if (ls == 0) return normal;
  return normal == forced ? normal : V3::kX;  // X launch: merge
}

std::uint8_t cg_buf(const std::uint8_t* row, const NodeId* ins, std::size_t) {
  return row[ins[0]];
}
std::uint8_t cg_not(const std::uint8_t* row, const NodeId* ins, std::size_t) {
  return c_not(row[ins[0]]);
}
template <std::uint8_t (*Op)(std::uint8_t, std::uint8_t), bool kInvert>
std::uint8_t cg_fold(const std::uint8_t* row, const NodeId* ins,
                     std::size_t n) {
  std::uint8_t acc = row[ins[0]];
  for (std::size_t i = 1; i < n; ++i) acc = Op(acc, row[ins[i]]);
  return kInvert ? c_not(acc) : acc;
}

using CompGateFn = std::uint8_t (*)(const std::uint8_t*, const NodeId*,
                                    std::size_t);
// Indexed by GateType; sources/DFFs/constants never dispatch through it.
constexpr std::array<CompGateFn, 12> kCompGateTable = {
    nullptr,                 // kInput
    &cg_buf,                 // kBuf
    &cg_not,                 // kNot
    &cg_fold<c_and, false>,  // kAnd
    &cg_fold<c_and, true>,   // kNand
    &cg_fold<c_or, false>,   // kOr
    &cg_fold<c_or, true>,    // kNor
    &cg_fold<c_xor, false>,  // kXor
    &cg_fold<c_xor, true>,   // kXnor
    nullptr,                 // kDff
    nullptr,                 // kConst0
    nullptr,                 // kConst1
};

}  // namespace

FrameModel::FrameModel(const netlist::Circuit& c,
                       std::optional<fault::Fault> fault, unsigned max_frames,
                       std::span<const NodeId> goals)
    : circuit_(c) {
  reset(std::move(fault), max_frames, goals);
}

void FrameModel::reset(std::optional<fault::Fault> fault, unsigned max_frames,
                       std::span<const NodeId> goals) {
  assert(max_frames >= 1);
  // The cone is closed under frame-0 fan-in only: a fault injection or a
  // later frame would read cells outside it.
  assert(goals.empty() || (!fault && max_frames == 1));
  fault_ = std::move(fault);
  fault_node_ = fault_ ? fault_->node : kNoFaultNode;
  trans_ = fault_ && fault_->is_transition();
  launch_line_ = kNoFaultNode;
  launch_skew_ = 1;
  if (trans_) {
    launch_line_ = fault::launch_line(circuit_, *fault_);
    if (fault_->pin != fault::kOutputPin &&
        circuit_.type(fault_->node) == GateType::kDff) {
      launch_skew_ = 2;
    }
  }
  max_frames_ = max_frames;
  frame_count_ = 1;
  stats_ = {};
  trail_.clear();
  const auto& c = circuit_;
  node_stride_ = c.node_count();
  pi_stride_ = c.primary_inputs().size();
  const std::size_t cells =
      static_cast<std::size_t>(max_frames_) * c.node_count();
  if (comp_.capacity() < cells) ++buffer_grows_;
  comp_.assign(cells, compbits::pack_same(V3::kX));
  if (comp_fn_.empty()) {
    comp_fn_.resize(c.node_count(), nullptr);
    for (NodeId n = 0; n < c.node_count(); ++n) {
      comp_fn_[n] = kCompGateTable[static_cast<std::size_t>(c.type(n))];
    }
  }
  pi_assign_.assign(
      static_cast<std::size_t>(max_frames_) * c.primary_inputs().size(),
      V3::kX);
  state_assign_.assign(c.flip_flops().size(), V3::kX);
  init_propagation();
  restricted_ = !goals.empty();
  if (restricted_) build_cone(goals);
  recompute_frame(0);
  // Mark 0 is the post-construction state: the trail starts empty, the
  // summaries stay (they describe the values just computed).
  trail_.clear();
}

void FrameModel::init_propagation() {
  const auto& c = circuit_;
  level_stride_ = static_cast<std::size_t>(c.max_level()) + 1;
  const std::size_t cells =
      static_cast<std::size_t>(max_frames_) * c.node_count();
  const std::size_t bucket_count =
      static_cast<std::size_t>(max_frames_) * level_stride_;
  if (level_base_.empty()) {  // circuit-static: level → slab offset
    level_base_.assign(level_stride_ + 1, 0);
    for (NodeId n = 0; n < c.node_count(); ++n) ++level_base_[c.level(n) + 1];
    for (std::size_t l = 1; l <= level_stride_; ++l) {
      level_base_[l] += level_base_[l - 1];
    }
    // Per-node enqueue caches: level key and bucket slab offset in one
    // indexed load each (level_base_[level(n)] is a dependent chain).
    node_level_.assign(c.node_count(), 0);
    node_slab_.assign(c.node_count(), 0);
    for (NodeId n = 0; n < c.node_count(); ++n) {
      node_level_[n] = c.level(n);
      node_slab_[n] = level_base_[c.level(n)];
    }
  }
  if (in_queue_.capacity() < cells) ++buffer_grows_;
  qbuf_.resize(cells);  // contents are written before being read
  qfill_.assign(bucket_count, 0);
  queue_cursor_ = bucket_count;
  queue_pending_ = 0;
  in_queue_.assign(cells, 0);
  if (fault_) {
    po_d_count_.assign(max_frames_, 0);
    ffin_d_count_.assign(max_frames_, 0);
    if (ff_consumer_count_.empty()) {  // circuit-static
      ff_consumer_count_.assign(c.node_count(), 0);
      for (NodeId ff : c.flip_flops()) ++ff_consumer_count_[c.fanins(ff)[0]];
    }
    if (topo_pos_.empty()) {  // circuit-static
      topo_pos_.assign(c.node_count(), 0);
      const auto topo = c.topo_order();
      for (std::size_t i = 0; i < topo.size(); ++i) {
        topo_pos_[topo[i]] = static_cast<std::uint32_t>(i);
      }
    }
    in_frontier_.assign(cells, 0);
    listed_.assign(cells, 0);
    frontier_arena_.resize(cells);
    frontier_fill_.assign(max_frames_, 0);
  }
}

void FrameModel::build_cone(std::span<const NodeId> goals) {
  const auto& c = circuit_;
  if (cone_stamp_.empty()) cone_stamp_.assign(c.node_count(), 0);
  if (++cone_epoch_ == 0) {  // wrapped: old stamps could collide
    std::fill(cone_stamp_.begin(), cone_stamp_.end(), 0);
    cone_epoch_ = 1;
  }
  cone_order_.clear();
  const auto mark = [this](NodeId n) {
    return std::exchange(cone_stamp_[n], cone_epoch_) != cone_epoch_;
  };
  const auto list = [this](NodeId n) { cone_order_.push_back(n); };
  for (const NodeId goal : goals) {
    netlist::walk_fanin(c, goal, cone_walk_, mark, list);
  }
}

bool FrameModel::extend() {
  if (frame_count_ >= max_frames_) return false;
  ++frame_count_;
  recompute_frame(frame_count_ - 1);
  return true;
}

void FrameModel::set_frame_count(unsigned n) {
  assert(n >= 1 && n <= max_frames_);
  if (n <= frame_count_) {
    // Shrinking never releases storage: every buffer stays sized for
    // max_frames_, so shrink/grow cycles while backtracking over window
    // extensions cost no allocation (see buffer_grows()).
    frame_count_ = n;
    return;
  }
  // Growth: newly active frames hold stale (or never-computed) values and
  // must be rebuilt from the current assignments, oldest first so each
  // frame's flip-flops read a finished predecessor frame.
  while (frame_count_ < n) {
    ++frame_count_;
    recompute_frame(frame_count_ - 1);
  }
}

void FrameModel::assign_pi(unsigned frame, std::size_t pi_index, V3 v) {
  V3& slot = pi_assign_[pi_cell(frame, pi_index)];
  if (slot == v) return;
  trail_.push_back({TrailEntry::kPi, static_cast<std::uint8_t>(slot), frame,
                    static_cast<std::uint32_t>(pi_index)});
  slot = v;
  if (frame < frame_count_) {
    // Inactive frames pick the assignment up when they are activated
    // (recompute_frame reads pi_assign_ directly).
    enqueue(frame, circuit_.primary_inputs()[pi_index]);
    propagate();
  }
}

void FrameModel::assign_state(std::size_t ff_index, V3 v) {
  V3& slot = state_assign_[ff_index];
  if (slot == v) return;
  trail_.push_back({TrailEntry::kState, static_cast<std::uint8_t>(slot), 0,
                    static_cast<std::uint32_t>(ff_index)});
  slot = v;
  enqueue(0, circuit_.flip_flops()[ff_index]);  // frame 0 is always active
  propagate();
}

void FrameModel::clear_state(std::size_t ff_index) {
  assign_state(ff_index, V3::kX);
}

// -- Evaluation ---------------------------------------------------------------

std::uint8_t FrameModel::compute_comp(unsigned frame, NodeId n) {
  const auto& c = circuit_;
  if (n == fault_node_) return compute_comp_faulted(frame, n);
  // The kernel table doubles as the gate test (sources/DFFs/constants hold
  // nullptr), so the hot case needs no GateType load or switch.
  if (const CompGateFn fn = comp_fn_[n]) {
    // One kernel call evaluates both planes, but gate_evals counts per
    // plane: 2 with a faulty plane, 1 without.  The snapshot counters in
    // BENCH_detengine.json and EngineCounters::det_gate_evals pin that
    // count.
    stats_.gate_evals += fault_ ? 2 : 1;
    const auto fanins = c.fanins(n);
    return fn(comp_.data() + cell(frame, 0), fanins.data(), fanins.size());
  }
  switch (c.type(n)) {
    case GateType::kInput:
      return compbits::pack_same(
          pi_assign_[pi_cell(frame, static_cast<std::size_t>(c.pi_index(n)))]);
    case GateType::kDff:
      if (frame == 0) {
        return compbits::pack_same(
            state_assign_[static_cast<std::size_t>(c.ff_index(n))]);
      }
      // Both planes of the previous frame's D fanin in one byte copy.
      return comp_[cell(frame - 1, c.fanins(n)[0])];
    case GateType::kConst1:
      return compbits::pack_same(V3::k1);
    default:
      return compbits::pack_same(V3::k0);  // kConst0
  }
}

int FrameModel::launch_state(unsigned frame) const {
  if (frame < launch_skew_) return 0;  // power-up frames cannot launch
  const V3 launch = good(frame - launch_skew_, launch_line_);
  if (launch == (fault_->stuck_at ? V3::k1 : V3::k0)) return 1;
  return launch == V3::kX ? 2 : 0;
}

std::uint8_t FrameModel::compute_comp_faulted(unsigned frame, NodeId n) {
  const auto& c = circuit_;
  const fault::Fault& f = *fault_;
  const V3 forced = f.stuck_at ? V3::k1 : V3::k0;
  const int ls = trans_ ? launch_state(frame) : 1;
  const GateType t = c.type(n);
  switch (t) {
    case GateType::kInput: {
      const V3 g =
          pi_assign_[pi_cell(frame, static_cast<std::size_t>(c.pi_index(n)))];
      return compbits::pack(
          g, f.pin == fault::kOutputPin ? gate_transition(g, forced, ls) : g);
    }
    case GateType::kDff: {
      V3 g, fy;
      if (frame == 0) {
        g = fy = state_assign_[static_cast<std::size_t>(c.ff_index(n))];
      } else {
        const std::uint8_t prev = comp_[cell(frame - 1, c.fanins(n)[0])];
        g = compbits::good(prev);
        fy = compbits::faulty(prev);
        if (f.pin == 0) fy = gate_transition(fy, forced, ls);
      }
      if (f.pin == fault::kOutputPin) fy = gate_transition(fy, forced, ls);
      return compbits::pack(g, fy);
    }
    case GateType::kConst0:
    case GateType::kConst1: {
      const V3 g = t == GateType::kConst0 ? V3::k0 : V3::k1;
      return compbits::pack(
          g, f.pin == fault::kOutputPin ? gate_transition(g, forced, ls) : g);
    }
    default: {
      stats_.gate_evals += 2;  // per plane, as in compute_comp
      const auto fanins = c.fanins(n);
      const std::uint8_t* row = comp_.data() + cell(frame, 0);
      if (f.pin == fault::kOutputPin) {
        const std::uint8_t b = comp_fn_[n](row, fanins.data(), fanins.size());
        const V3 fy = gate_transition(compbits::faulty(b), forced, ls);
        return static_cast<std::uint8_t>((b & 0x03) |
                                         (compbits::bits(fy) << 2));
      }
      // Input-pin fault: evaluate the faulty plane with the pin forced by
      // position (one driver may feed several pins).
      const V3 g = sim::eval_gate_scalar(
          t, fanins, [&](NodeId in) { return compbits::good(row[in]); });
      const auto fp = static_cast<std::size_t>(f.pin);
      const V3 pin_v =
          gate_transition(compbits::faulty(row[fanins[fp]]), forced, ls);
      const V3 fy =
          sim::eval_gate_scalar_pos(t, fanins.size(), [&](std::size_t i) {
            return i == fp ? pin_v : compbits::faulty(row[fanins[i]]);
          });
      return compbits::pack(g, fy);
    }
  }
}

// -- Event-driven propagation -------------------------------------------------

void FrameModel::enqueue(unsigned frame, NodeId n) {
  const std::size_t cl = cell(frame, n);
  if (in_queue_[cl]) return;
  in_queue_[cl] = 1;
  const std::size_t key =
      static_cast<std::size_t>(frame) * level_stride_ + node_level_[n];
  qbuf_[static_cast<std::size_t>(frame) * node_stride_ + node_slab_[n] +
        qfill_[key]++] = n;
  ++queue_pending_;
  if (key < queue_cursor_) queue_cursor_ = key;
}

void FrameModel::schedule_fanouts(unsigned frame, NodeId n) {
  for (NodeId out : circuit_.fanouts(n)) {
    if (circuit_.type(out) == GateType::kDff) {
      // The change crosses the flip-flop into the next frame (if active);
      // inactive frames are rebuilt wholesale on activation.
      if (frame + 1 < frame_count_) enqueue(frame + 1, out);
    } else if (kept(out)) {
      enqueue(frame, out);
    }
  }
}

void FrameModel::propagate() {
  // Keys strictly increase along any propagation path (a fanout is deeper
  // in the same frame, or a level-0 flip-flop of the next frame), so one
  // ascending sweep of the buckets drains the queue and touches each
  // scheduled node exactly once.  In particular the bucket being drained
  // can never receive appends, so a plain index sweep suffices.
  while (queue_pending_ > 0) {
    while (qfill_[queue_cursor_] == 0) ++queue_cursor_;
    const std::size_t key = queue_cursor_;
    const auto t = static_cast<unsigned>(key / level_stride_);
    const auto lvl = static_cast<std::uint32_t>(key % level_stride_);
    const std::size_t base = bucket_base(t, lvl);
    const std::uint32_t fill = qfill_[key];
    stats_.events += fill;
    queue_pending_ -= fill;
    for (std::uint32_t i = 0; i < fill; ++i) {
      const NodeId n = qbuf_[base + i];
      in_queue_[cell(t, n)] = 0;
      update_cell(t, n, /*schedule=*/true);
    }
    qfill_[key] = 0;
  }
  queue_cursor_ = qfill_.size();
}

void FrameModel::update_cell(unsigned frame, NodeId n, bool schedule) {
  std::uint8_t& b = comp_[cell(frame, n)];
  const std::uint8_t nb = compute_comp(frame, n);
  if (nb == b) return;
  const std::uint8_t before = b;
  trail_.push_back({TrailEntry::kCell, before, frame, n});
  b = nb;
  if (fault_) note_composite_change(frame, n, before, nb);
  // Transition faults add one cross-frame dependency the fanout graph does
  // not carry: the fault site's forcing at frame f reads the good plane of
  // the launch line at f - skew.  When that anchor moves, re-derive the
  // injection at the capture frame.  During frame activation
  // (recompute_frame) the capture frame is outside the window, so the guard
  // keeps the queue empty there; during propagate() the key is strictly
  // deeper than the bucket being drained (skew >= 1).
  if (trans_ && n == launch_line_ &&
      compbits::good(nb) != compbits::good(before) &&
      frame + launch_skew_ < frame_count_) {
    enqueue(frame + launch_skew_, fault_node_);
  }
  if (schedule) schedule_fanouts(frame, n);
}

void FrameModel::recompute_frame(unsigned frame) {
  if (restricted_) {  // only frame 0 exists, and only its cone is kept
    for (const NodeId n : cone_order_) {
      update_cell(frame, n, /*schedule=*/false);
    }
    return;
  }
  const auto& c = circuit_;
  for (NodeId pi : c.primary_inputs()) {
    update_cell(frame, pi, /*schedule=*/false);
  }
  for (NodeId ff : c.flip_flops()) {
    update_cell(frame, ff, /*schedule=*/false);
  }
  for (NodeId n = 0; n < c.node_count(); ++n) {
    const GateType t = c.type(n);
    if (t == GateType::kConst0 || t == GateType::kConst1) {
      update_cell(frame, n, /*schedule=*/false);
    }
  }
  for (NodeId g : c.topo_order()) {
    update_cell(frame, g, /*schedule=*/false);
  }
}

void FrameModel::note_composite_change(unsigned frame, NodeId n,
                                       std::uint8_t before,
                                       std::uint8_t after) {
  const int d_delta = static_cast<int>(compbits::kIsD[after & 0x0F]) -
                      static_cast<int>(compbits::kIsD[before & 0x0F]);
  if (d_delta != 0) {
    if (circuit_.is_primary_output(n)) po_d_count_[frame] += d_delta;
    if (ff_consumer_count_[n] != 0) {
      ffin_d_count_[frame] +=
          d_delta * static_cast<int>(ff_consumer_count_[n]);
    }
    // A fanin's D status feeds its consumers' frontier membership.
    for (NodeId out : circuit_.fanouts(n)) {
      if (netlist::is_combinational(circuit_.type(out))) {
        refresh_frontier(frame, out);
      }
    }
  }
  if (compbits::kAnyX[after & 0x0F] != compbits::kAnyX[before & 0x0F] &&
      netlist::is_combinational(circuit_.type(n))) {
    refresh_frontier(frame, n);
  }
}

void FrameModel::refresh_frontier(unsigned frame, NodeId gate) const {
  bool member = false;
  const std::uint8_t* row = comp_.data() + cell(frame, 0);
  if (compbits::kAnyX[row[gate] & 0x0F]) {
    for (NodeId in : circuit_.fanins(gate)) {
      if (compbits::kIsD[row[in] & 0x0F]) {
        member = true;
        break;
      }
    }
  }
  const std::size_t cl = cell(frame, gate);
  if (in_frontier_[cl] == static_cast<char>(member)) return;
  in_frontier_[cl] = static_cast<char>(member);
  if (member && !listed_[cl]) {
    listed_[cl] = 1;
    frontier_arena_[cell(frame, 0) + frontier_fill_[frame]++] = gate;
  }
  // Leaving members stay listed until the next d_frontier() compaction.
}

void FrameModel::undo_to(std::size_t mark) {
  assert(mark <= trail_.size());
  while (trail_.size() > mark) {
    const TrailEntry e = trail_.back();
    trail_.pop_back();
    switch (e.kind) {
      case TrailEntry::kPi:
        pi_assign_[pi_cell(e.frame, e.index)] = static_cast<V3>(e.old);
        break;
      case TrailEntry::kState:
        state_assign_[e.index] = static_cast<V3>(e.old);
        break;
      case TrailEntry::kCell: {
        std::uint8_t& b = comp_[cell(e.frame, e.index)];
        const std::uint8_t before = b;
        b = e.old;
        if (fault_) note_composite_change(e.frame, e.index, before, b);
        break;
      }
    }
  }
}

// -- Queries ------------------------------------------------------------------

bool FrameModel::po_has_d() const {
  if (!fault_) return false;
  for (unsigned t = 0; t < frame_count_; ++t) {
    if (po_d_count_[t] > 0) return true;
  }
  return false;
}

bool FrameModel::d_reaches_ff_input(unsigned frame) const {
  return fault_ && ffin_d_count_[frame] > 0;
}

const std::vector<FrameModel::FrontierGate>& FrameModel::d_frontier() const {
  frontier_out_.clear();
  if (!fault_) return frontier_out_;
  const std::size_t nc = circuit_.node_count();
  for (unsigned t = 0; t < frame_count_; ++t) {
    NodeId* members = frontier_arena_.data() + static_cast<std::size_t>(t) * nc;
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < frontier_fill_[t]; ++i) {
      const NodeId g = members[i];
      if (in_frontier_[cell(t, g)]) {
        members[kept++] = g;
      } else {
        listed_[cell(t, g)] = 0;
      }
    }
    frontier_fill_[t] = kept;
    // The arena holds members in join order, which depends on the search
    // history.  Callers rank the frontier with unstable sorts, so the order
    // is part of determinism: topological order makes it a function of the
    // current values alone.
    std::sort(members, members + kept, [&](NodeId a, NodeId b) {
      return topo_pos_[a] < topo_pos_[b];
    });
    for (std::uint32_t i = 0; i < kept; ++i) {
      frontier_out_.push_back({t, members[i]});
    }
  }
  return frontier_out_;
}

sim::Sequence FrameModel::extract_vectors() const {
  const std::size_t npi = circuit_.primary_inputs().size();
  sim::Sequence seq(frame_count_);
  for (unsigned t = 0; t < frame_count_; ++t) {
    seq[t].assign(pi_assign_.begin() + static_cast<std::ptrdiff_t>(t * npi),
                  pi_assign_.begin() + static_cast<std::ptrdiff_t>((t + 1) * npi));
  }
  return seq;
}

sim::State3 FrameModel::extract_state() const { return state_assign_; }

}  // namespace gatpg::atpg
