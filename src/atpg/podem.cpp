#include "atpg/podem.h"

namespace gatpg::atpg {

using netlist::GateType;
using netlist::NodeId;
using sim::V3;

namespace {

/// Chooses the fanin to descend into.  `want_all` is true when every input
/// must take the target value (non-controlling case): classic PODEM then
/// picks the hardest (deepest) X input, otherwise the easiest (shallowest).
NodeId pick_x_fanin(const FrameModel& m, unsigned frame, NodeId gate,
                    bool want_all) {
  const auto& c = m.circuit();
  NodeId best = netlist::kNoNode;
  std::uint32_t best_level = 0;
  for (NodeId in : c.fanins(gate)) {
    if (!m.composite(frame, in).any_x()) continue;
    const std::uint32_t lvl = c.level(in);
    if (best == netlist::kNoNode || (want_all ? lvl > best_level
                                              : lvl < best_level)) {
      best = in;
      best_level = lvl;
    }
  }
  return best;
}

}  // namespace

std::optional<InputAssignment> backtrace(const FrameModel& m,
                                         const Objective& obj) {
  const auto& c = m.circuit();
  unsigned frame = obj.frame;
  NodeId node = obj.node;
  V3 value = obj.value;

  // The walk strictly descends through levels/frames, so it terminates.
  for (;;) {
    const GateType t = c.type(node);
    switch (t) {
      case GateType::kInput: {
        const auto pi = static_cast<std::size_t>(c.pi_index(node));
        if (m.pi_value(frame, pi) != V3::kX) return std::nullopt;
        return InputAssignment{false, frame, pi, value};
      }
      case GateType::kDff: {
        const auto ff = static_cast<std::size_t>(c.ff_index(node));
        if (frame == 0) {
          if (m.state_value(ff) != V3::kX) return std::nullopt;
          return InputAssignment{true, 0, ff, value};
        }
        // Cross into the previous time frame through the D input.
        --frame;
        node = c.fanins(node)[0];
        continue;
      }
      case GateType::kConst0:
      case GateType::kConst1:
        return std::nullopt;
      case GateType::kBuf:
        node = c.fanins(node)[0];
        continue;
      case GateType::kNot:
        node = c.fanins(node)[0];
        value = sim::v3_not(value);
        continue;
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool inv = netlist::inverts(t);
        const V3 need = inv ? sim::v3_not(value) : value;
        const bool ctrl = netlist::controlling_value(t);
        const V3 ctrl_v = ctrl ? V3::k1 : V3::k0;
        // need == controlling: one input suffices (easiest X input);
        // need == non-controlling: all inputs needed (hardest X input).
        const bool want_all = need != ctrl_v;
        const NodeId in = pick_x_fanin(m, frame, node, want_all);
        if (in == netlist::kNoNode) return std::nullopt;
        node = in;
        value = need;
        continue;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        // Choose any X input; aim it at the parity implied by the defined
        // inputs (X siblings counted as 0 — a heuristic; implication decides
        // the truth).
        const bool inv = netlist::inverts(t);
        V3 need = inv ? sim::v3_not(value) : value;
        const NodeId in = pick_x_fanin(m, frame, node, /*want_all=*/false);
        if (in == netlist::kNoNode) return std::nullopt;
        for (NodeId sib : c.fanins(node)) {
          if (sib == in) continue;
          const V3 sv = m.good(frame, sib);
          if (sv == V3::k1) need = sim::v3_not(need);
        }
        node = in;
        value = need;
        continue;
      }
    }
  }
}

void DecisionStack::apply(const InputAssignment& a) {
  if (a.is_state) {
    model_.assign_state(a.index, a.value);
  } else {
    model_.assign_pi(a.frame, a.index, a.value);
  }
}

void DecisionStack::push(const InputAssignment& a) {
  Entry e;
  e.assignment = a;
  e.frames_at_push = model_.frame_count();
  e.mark = model_.trail_mark();
  stack_.push_back(e);
  apply(a);
}

bool DecisionStack::backtrack(SearchStats& stats) {
  while (!stack_.empty()) {
    Entry& top = stack_.back();
    // Restore the exact pre-decision state (values, summaries, and the
    // decision's own assignment) from the trail, then shrink the window.
    model_.undo_to(top.mark);
    model_.set_frame_count(top.frames_at_push);
    if (!top.flipped) {
      top.flipped = true;
      top.assignment.value = sim::v3_not(top.assignment.value);
      apply(top.assignment);
      ++stats.backtracks;
      return true;
    }
    stack_.pop_back();
  }
  return false;
}

void DecisionStack::unwind_all() {
  if (!stack_.empty()) model_.undo_to(stack_.front().mark);
  stack_.clear();
  model_.set_frame_count(1);
}

}  // namespace gatpg::atpg
