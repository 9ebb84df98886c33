// Naive time-frame-expansion oracle for atpg::FrameModel.
//
// Recomputes both planes of every frame from scratch out of the PI/state
// assignments and the window size, then answers the fault-effect queries by
// direct scans of the recomputed planes.  No events, no trail, no
// incrementally maintained summaries, and no evaluation code shared with
// src/atpg: gates evaluate through reference_gate, one V3 at a time.
//
// Fault semantics (see src/atpg/frame_model.h):
// * the good plane is fault-free; the faulty plane injects the fault in
//   every frame (fault-free models mirror the good plane into it);
// * PI and frame-0 state assignments hold in both planes, so a flip-flop
//   D-pin fault has no effect in frame 0 (nothing was latched yet);
// * a transition fault forces its line in frame t only when the good value
//   of its launch line in frame t - skew equals the launch value (skew 2
//   for flip-flop D-pin faults, 1 otherwise); frames t < skew are
//   fault-free, and an X launch keeps the fault-free value where it agrees
//   with the forced one and X elsewhere.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "helpers/reference_sim.h"
#include "netlist/circuit.h"
#include "sim/seqsim.h"

namespace gatpg::test {

struct ReferenceFrames {
  std::vector<std::vector<sim::V3>> good;    // [frame][node]
  std::vector<std::vector<sim::V3>> faulty;  // [frame][node]
  bool po_has_d = false;
  std::vector<bool> d_at_ff_input;  // [frame]: some flip-flop D input is D
  /// Combinational gates with an X in either plane and a D/D̄ fanin, as
  /// (frame, node) in (frame, topological position) order.
  std::vector<std::pair<unsigned, netlist::NodeId>> d_frontier;
};

/// Expands `pis.size()` frames; `pis[t][i]` is PI i's assignment in frame
/// t and `state[k]` is flip-flop k's frame-0 assignment.
inline ReferenceFrames reference_frames(const netlist::Circuit& c,
                                        const std::optional<fault::Fault>& f,
                                        const sim::Sequence& pis,
                                        const sim::State3& state) {
  using netlist::GateType;
  using netlist::NodeId;
  using sim::V3;
  const auto frames = static_cast<unsigned>(pis.size());
  ReferenceFrames r;
  r.good.assign(frames, std::vector<V3>(c.node_count(), V3::kX));
  r.faulty = r.good;

  auto is_d = [](V3 g, V3 fy) {
    return g != V3::kX && fy != V3::kX && g != fy;
  };

  // Fault activity per frame: 1 forced, 0 fault-free, 2 X launch.
  NodeId launch_line = netlist::kNoNode;
  unsigned skew = 1;
  V3 forced = V3::kX;
  if (f) {
    forced = f->stuck_at ? V3::k1 : V3::k0;
    launch_line = f->pin == fault::kOutputPin
                      ? f->node
                      : c.fanins(f->node)[static_cast<std::size_t>(f->pin)];
    if (f->pin >= 0 && c.type(f->node) == GateType::kDff) skew = 2;
  }
  auto activity = [&](unsigned t) {
    if (!f->is_transition()) return 1;
    if (t < skew) return 0;
    const V3 launch = r.good[t - skew][launch_line];
    if (launch == V3::kX) return 2;
    return launch == forced ? 1 : 0;
  };
  auto inject = [&](V3 normal, unsigned t) {
    switch (activity(t)) {
      case 1:
        return forced;
      case 0:
        return normal;
      default:
        return normal == forced ? forced : V3::kX;
    }
  };

  for (unsigned t = 0; t < frames; ++t) {
    for (int plane = 0; plane < (f ? 2 : 1); ++plane) {
      const bool faulty = plane == 1;
      std::vector<V3>& v = faulty ? r.faulty[t] : r.good[t];
      auto at_site = [&](NodeId n, int pin) {
        return faulty && f->node == n && f->pin == pin;
      };
      for (NodeId n = 0; n < c.node_count(); ++n) {
        const GateType type = c.type(n);
        if (type == GateType::kInput) {
          v[n] = pis[t][static_cast<std::size_t>(c.pi_index(n))];
        } else if (type == GateType::kDff) {
          if (t == 0) {
            v[n] = state[static_cast<std::size_t>(c.ff_index(n))];
          } else {
            const auto& prev = faulty ? r.faulty[t - 1] : r.good[t - 1];
            v[n] = prev[c.fanins(n)[0]];
            if (at_site(n, 0)) v[n] = inject(v[n], t);
          }
        } else if (type == GateType::kConst0) {
          v[n] = V3::k0;
        } else if (type == GateType::kConst1) {
          v[n] = V3::k1;
        } else {
          continue;  // combinational: evaluated below in topological order
        }
        if (at_site(n, fault::kOutputPin)) v[n] = inject(v[n], t);
      }
      for (NodeId g : c.topo_order()) {
        std::vector<V3> in;
        const auto fanins = c.fanins(g);
        for (std::size_t p = 0; p < fanins.size(); ++p) {
          V3 x = v[fanins[p]];
          if (at_site(g, static_cast<int>(p))) x = inject(x, t);
          in.push_back(x);
        }
        v[g] = reference_gate(c.type(g), in);
        if (at_site(g, fault::kOutputPin)) v[g] = inject(v[g], t);
      }
    }
    if (!f) r.faulty[t] = r.good[t];
  }

  r.d_at_ff_input.assign(frames, false);
  for (unsigned t = 0; t < frames; ++t) {
    auto d_at = [&](NodeId n) { return is_d(r.good[t][n], r.faulty[t][n]); };
    for (NodeId po : c.primary_outputs()) {
      if (d_at(po)) r.po_has_d = true;
    }
    for (NodeId ff : c.flip_flops()) {
      if (d_at(c.fanins(ff)[0])) r.d_at_ff_input[t] = true;
    }
    for (NodeId g : c.topo_order()) {
      if (r.good[t][g] != V3::kX && r.faulty[t][g] != V3::kX) continue;
      for (NodeId in : c.fanins(g)) {
        if (d_at(in)) {
          r.d_frontier.emplace_back(t, g);
          break;
        }
      }
    }
  }
  return r;
}

}  // namespace gatpg::test
