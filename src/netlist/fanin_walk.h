// Post-order walk of the combinational fan-in of a node.
//
// The one definition of a goal cone: the nodes a root's value depends on
// within a single time frame.  The walk descends only through combinational
// gates, so primary inputs, flip-flops and constants end it, and it reports
// each node it enters once, after all of that node's fanins, so the reports
// form an evaluation order.  The caller owns the mark and the stack, so
// repeated walks reuse both and cost O(cone) each: FrameModel stamps epochs,
// the GA's goal cone keeps one mark across depths, and sequential_depth
// restamps one mark per flip-flop.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/circuit.h"

namespace gatpg::netlist {

/// The walk's (node, next fanin) frames.
using FaninStack = std::vector<std::pair<NodeId, std::uint32_t>>;

/// Walks the combinational fan-in of `root` in post-order.  `mark(n)` marks
/// n and returns false if it was marked already; the walk enters only newly
/// marked nodes and calls `emit(n)` for each once its fanins are done.
/// `stack` must be empty and is left empty.
template <class Mark, class Emit>
void walk_fanin(const Circuit& c, NodeId root, FaninStack& stack,
                Mark&& mark, Emit&& emit) {
  const auto enter = [&](NodeId n) {
    if (!mark(n)) return;
    if (is_combinational(c.type(n))) {
      stack.push_back({n, 0});
    } else {
      emit(n);
    }
  };
  enter(root);
  while (!stack.empty()) {
    auto& [n, next] = stack.back();
    const auto fanins = c.fanins(n);
    if (next < fanins.size()) {
      enter(fanins[next++]);  // may grow the stack: n and next go stale
      continue;
    }
    emit(n);
    stack.pop_back();
  }
}

}  // namespace gatpg::netlist
