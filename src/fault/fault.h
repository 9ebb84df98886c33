// Model-aware fault descriptor.
//
// Faults live on pins: the output stem of any node (pin == kOutputPin) or an
// individual fanin branch of a gate (pin == fanin index).  A branch fault on
// gate g's pin p affects only that connection; other fanouts of the driving
// node see the fault-free value — exactly how the simulators inject faults
// (seqsim input overrides).
//
// The `model` axis selects what the forced value means:
//
// * kStuckAt — the line is permanently forced to `stuck_at`.
// * kTransitionSlowToRise / kTransitionSlowToFall — gross-delay transition
//   faults mapped onto the stuck-at override machinery via the two-frame
//   launch/capture trick: the line is forced to its *launch* value only in
//   frames whose preceding good-machine value equalled that launch value
//   (slow-to-rise: the line was 0 and fails to rise, so it behaves stuck-at-0
//   in the capture frame; slow-to-fall dually).  Representation invariant:
//   for transition faults `stuck_at` holds the launch (= forced) value, so
//   kTransitionSlowToRise implies stuck_at == false and
//   kTransitionSlowToFall implies stuck_at == true.  In the power-up frame
//   (no preceding value) a transition fault is inactive, and an X launch
//   value merges the forced and fault-free behaviors (X where they differ) —
//   both choices only ever under-claim detection, and every claimed
//   detection is re-verified by the fault simulator.
#pragma once

#include <string>

#include "netlist/circuit.h"

namespace gatpg::fault {

inline constexpr int kOutputPin = -1;

enum class FaultModel : std::uint8_t {
  kStuckAt = 0,
  kTransitionSlowToRise = 1,
  kTransitionSlowToFall = 2,
};

constexpr bool is_transition(FaultModel m) {
  return m != FaultModel::kStuckAt;
}

struct Fault {
  netlist::NodeId node = netlist::kNoNode;
  int pin = kOutputPin;  // kOutputPin = stem, >= 0 = fanin branch index
  /// Stuck-at: the forced value.  Transition: the launch value, which is
  /// also the value the line is forced to in active capture frames.
  bool stuck_at = false;
  FaultModel model = FaultModel::kStuckAt;

  bool is_transition() const { return fault::is_transition(model); }

  friend constexpr bool operator==(const Fault&, const Fault&) = default;
};

/// Transition fault on a site: slow-to-rise launches from 0, slow-to-fall
/// from 1 (the representation invariant above).
constexpr Fault make_transition(netlist::NodeId node, int pin,
                                bool slow_to_fall) {
  return {node, pin, slow_to_fall,
          slow_to_fall ? FaultModel::kTransitionSlowToFall
                       : FaultModel::kTransitionSlowToRise};
}

/// The good-machine line whose value launches a transition fault at this
/// site: the faulted node's own output for an output (stem) fault, the
/// driving line for an input-pin (branch) fault.  The fault is active in a
/// frame iff this line settled to the transition's initial value (stuck_at)
/// in the frame before.  For a stuck-at fault it is the line whose good
/// value excites the site.
inline netlist::NodeId launch_line(const netlist::Circuit& c, const Fault& f) {
  return f.pin == kOutputPin
             ? f.node
             : c.fanins(f.node)[static_cast<std::size_t>(f.pin)];
}

inline const char* model_suffix(const Fault& f) {
  switch (f.model) {
    case FaultModel::kTransitionSlowToRise:
      return " str";
    case FaultModel::kTransitionSlowToFall:
      return " stf";
    case FaultModel::kStuckAt:
      break;
  }
  return f.stuck_at ? " s-a-1" : " s-a-0";
}

inline std::string to_string(const netlist::Circuit& c, const Fault& f) {
  std::string s = c.name(f.node);
  if (f.pin >= 0) {
    s += ".in" + std::to_string(f.pin) + "(" +
         c.name(c.fanins(f.node)[static_cast<std::size_t>(f.pin)]) + ")";
  }
  s += model_suffix(f);
  return s;
}

}  // namespace gatpg::fault
