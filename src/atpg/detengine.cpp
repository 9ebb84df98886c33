#include "atpg/detengine.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace gatpg::atpg {

using netlist::GateType;
using netlist::NodeId;
using sim::V3;

std::vector<std::uint32_t> observation_distances(const netlist::Circuit& c) {
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  constexpr std::uint32_t kFrameCost = 1000;  // crossing a flip-flop
  std::vector<std::uint32_t> dist(c.node_count(), kInf);
  // Multi-source shortest path on the reverse graph; weights are 1 (into a
  // combinational gate) or kFrameCost (into a DFF), relaxed by plain
  // Bellman-Ford sweeps until a fixed point.
  auto relax_all = [&] {
    // Bellman-Ford style sweeps; the graph is small and the loop converges
    // in a handful of iterations (longest simple path bounds it).
    bool changed = true;
    while (changed) {
      changed = false;
      for (NodeId n = 0; n < c.node_count(); ++n) {
        for (NodeId out : c.fanouts(n)) {
          const std::uint32_t step =
              c.type(out) == GateType::kDff ? kFrameCost : 1;
          if (dist[out] == kInf) continue;
          const std::uint32_t cand = dist[out] >= kInf - step
                                         ? kInf
                                         : dist[out] + step;
          if (cand < dist[n]) {
            dist[n] = cand;
            changed = true;
          }
        }
      }
    }
  };
  for (NodeId po : c.primary_outputs()) dist[po] = 0;
  relax_all();
  return dist;
}

ObsDistances share_observation_distances(const netlist::Circuit& c) {
  return std::make_shared<const std::vector<std::uint32_t>>(
      observation_distances(c));
}

ForwardEngine::ForwardEngine(const netlist::Circuit& c, const fault::Fault& f,
                             const SearchLimits& limits, ObsDistances obs_dist,
                             FrameModelPool* pool)
    : c_(c),
      fault_(f),
      limits_(limits),
      model_h_(pool ? pool->acquire(f, std::max(1u, limits.max_forward_frames))
                    : FrameModelPool::standalone(
                          c, f, std::max(1u, limits.max_forward_frames))),
      model_(*model_h_),
      stack_(model_),
      obs_dist_(obs_dist ? std::move(obs_dist)
                         : share_observation_distances(c)) {
  driver_ = f.pin == fault::kOutputPin
                ? f.node
                : c.fanins(f.node)[static_cast<std::size_t>(f.pin)];
}

const SearchStats& ForwardEngine::stats() const {
  stats_.gate_evals = static_cast<long>(model_.stats().gate_evals);
  stats_.events = static_cast<long>(model_.stats().events);
  return stats_;
}

bool ForwardEngine::launch_pair_at(unsigned t) const {
  const V3 initial = fault_.stuck_at ? V3::k1 : V3::k0;
  const V3 final_v = fault_.stuck_at ? V3::k0 : V3::k1;
  return t + 1 < model_.frame_count() && model_.good(t, driver_) == initial &&
         model_.good(t + 1, driver_) == final_v;
}

bool ForwardEngine::excitation_conflict() const {
  if (fault_.is_transition()) {
    // Launch normalized to frames (0, 1): frame 0 must be able to hold the
    // initial value and frame 1 the final value.
    const V3 initial = fault_.stuck_at ? V3::k1 : V3::k0;
    const V3 v0 = model_.good(0, driver_);
    if (v0 != V3::kX && v0 != initial) return true;
    if (model_.frame_count() >= 2) {
      const V3 v1 = model_.good(1, driver_);
      if (v1 != V3::kX && v1 == initial) return true;
    }
    return false;
  }
  const V3 v = model_.good(0, driver_);
  return v != V3::kX && (v == V3::k1) == fault_.stuck_at;
}

bool ForwardEngine::excited_somewhere() const {
  if (fault_.is_transition()) {
    for (unsigned t = 0; t + 1 < model_.frame_count(); ++t) {
      if (launch_pair_at(t)) return true;
    }
    return false;
  }
  for (unsigned t = 0; t < model_.frame_count(); ++t) {
    const V3 v = model_.good(t, driver_);
    if (v != V3::kX && (v == V3::k1) != fault_.stuck_at) return true;
  }
  return false;
}

std::vector<FrameModel::FrontierGate>& ForwardEngine::full_frontier() const {
  const auto& frontier = model_.d_frontier();
  frontier_scratch_.assign(frontier.begin(), frontier.end());
  // Branch faults: the faulted gate itself propagates the fault effect when
  // its driver carries the non-stuck good value, but the standard frontier
  // rule cannot see it (the branch is not a node).  Same for a faulted DFF
  // D pin, handled in d_pending_at_ff_input().
  if (fault_.pin >= 0 && c_.type(fault_.node) != GateType::kDff) {
    for (unsigned t = 0; t < model_.frame_count(); ++t) {
      if (fault_.is_transition()) {
        // The pin forcing in frame t is a fault effect only when frames
        // (t-1, t) of the driver hold the launch pair.
        if (t == 0 || !launch_pair_at(t - 1)) continue;
      } else {
        const V3 v = model_.good(t, driver_);
        if (v == V3::kX || (v == V3::k1) == fault_.stuck_at) continue;
      }
      if (model_.composite(t, fault_.node).any_x()) {
        frontier_scratch_.push_back({t, fault_.node});
      }
    }
  }
  return frontier_scratch_;
}

bool ForwardEngine::d_pending_at_ff_input() const {
  const unsigned last = model_.frame_count() - 1;
  if (model_.d_reaches_ff_input(last)) return true;
  if (fault_.pin == 0 && c_.type(fault_.node) == GateType::kDff) {
    if (fault_.is_transition()) {
      // The D forcing pending at the last frame's edge surfaces as a D on
      // the flip-flop one frame later iff frames (last-1, last) of the D
      // line hold the launch pair.
      return last >= 1 && launch_pair_at(last - 1);
    }
    const V3 v = model_.good(last, driver_);
    if (v != V3::kX && (v == V3::k1) != fault_.stuck_at) return true;
  }
  return false;
}

bool ForwardEngine::pick_objective(Objective& obj) {
  // Goal 1: excite — stuck-at in frame 0, transitions as the (0, 1) launch
  // pair (initial value in frame 0, final value in frame 1).
  if (fault_.is_transition()) {
    const V3 initial = fault_.stuck_at ? V3::k1 : V3::k0;
    if (model_.good(0, driver_) == V3::kX) {
      obj = {0, driver_, initial};
      return true;
    }
    if (model_.frame_count() >= 2 && model_.good(1, driver_) == V3::kX) {
      obj = {1, driver_, initial == V3::k1 ? V3::k0 : V3::k1};
      return true;
    }
  } else if (model_.good(0, driver_) == V3::kX) {
    obj = {0, driver_, fault_.stuck_at ? V3::k0 : V3::k1};
    return true;
  }
  // Goal 2: drive a D-frontier gate.
  auto& frontier = full_frontier();
  std::sort(frontier.begin(), frontier.end(),
            [&](const FrameModel::FrontierGate& a,
                const FrameModel::FrontierGate& b) {
              const auto da = (*obs_dist_)[a.node];
              const auto db = (*obs_dist_)[b.node];
              if (da != db) return da < db;
              return a.frame > b.frame;
            });
  bool skipped_faulty_only_x = false;
  for (const auto& fg : frontier) {
    const GateType t = c_.type(fg.node);
    // Find an X side input to set to the non-controlling value.
    for (std::size_t p = 0; p < c_.fanin_count(fg.node); ++p) {
      const NodeId in = c_.fanins(fg.node)[p];
      if (!model_.composite(fg.frame, in).any_x()) continue;
      if (model_.good(fg.frame, in) != V3::kX) {
        // Good value already set; only the faulty plane is X (reconvergence
        // around the fault site).  Backtrace cannot steer it, so exhaustion
        // would no longer cover this option — record the clip so the search
        // never claims an untestability proof here.
        skipped_faulty_only_x = true;
        continue;
      }
      V3 want;
      if (netlist::has_controlling_value(t)) {
        want = netlist::controlling_value(t) ? V3::k0 : V3::k1;
      } else {
        want = V3::k0;  // XOR family: any binary side value passes D
      }
      obj = {fg.frame, in, want};
      return true;
    }
  }
  if (skipped_faulty_only_x) stats_.clipped = true;
  return false;
}

sim::State3 ForwardEngine::required_state() {
  // Not currently at a solution; report the raw assignment.
  if (!model_.po_has_d()) return model_.extract_state();
  return model_.minimized_state([&] { return model_.po_has_d(); });
}

ForwardStatus ForwardEngine::next_solution(const util::Deadline& deadline) {
  auto final_status = [&] {
    if (fault_.is_transition() && !stats_.clipped && !any_solution_) {
      // The (0, 1) launch normalization prunes the search space, so
      // exhaustion never proves a transition fault untestable.
      stats_.clipped = true;
    }
    if (stats_.clipped || any_solution_) return ForwardStatus::kExhausted;
    return ForwardStatus::kUntestable;
  };

  if (started_) {
    // Reject the previous solution: continue the search past it.
    if (!stack_.backtrack(stats_)) return final_status();
  } else {
    started_ = true;
    if (fault_.is_transition() && model_.frame_count() < 2) {
      // The launch needs a predecessor frame; a one-frame window cannot
      // hold the (0, 1) pair.
      if (!model_.extend()) {
        stats_.clipped = true;  // the frame cap blocked the launch
        return ForwardStatus::kExhausted;
      }
    }
  }

  for (;;) {
    if (deadline.expired() || stats_.backtracks > limits_.max_backtracks) {
      stats_.clipped = true;
      return ForwardStatus::kAborted;
    }
    if (excitation_conflict()) {
      if (!stack_.backtrack(stats_)) return final_status();
      continue;
    }
    if (model_.po_has_d()) {
      any_solution_ = true;
      return ForwardStatus::kSolved;
    }
    Objective obj;
    if (pick_objective(obj)) {
      const auto assignment = backtrace(model_, obj);
      if (!assignment) {
        if (!stack_.backtrack(stats_)) return final_status();
        continue;
      }
      ++stats_.decisions;
      stack_.push(*assignment);
      continue;
    }
    // No objective: either the fault effect is parked at flip-flop inputs of
    // the last frame (extend the window) or it has died (backtrack).
    if (excited_somewhere() && d_pending_at_ff_input()) {
      if (model_.extend()) continue;
      stats_.clipped = true;  // the frame cap blocked further propagation
    }
    if (!stack_.backtrack(stats_)) return final_status();
  }
}

}  // namespace gatpg::atpg
