// Fault injection into the bit-parallel SequenceSimulator: the one home of
// the pin-to-override mapping and of the two-frame transition launch rule
// (fault.h) for every simulator that runs a faulty machine — the fault
// simulator, the GA justifier's fitness machines and the StateStore's
// witness check.
#pragma once

#include <cstdint>

#include "fault/fault.h"
#include "sim/seqsim.h"

namespace gatpg::fault {

/// Installs `f` on `m` for the slots of `slot_mask`: an output override on a
/// stem fault, an input override on a branch fault.  The override forces the
/// stuck (for a transition fault: the launch) value; transition faults are
/// then gated per frame by the activity masks below.
inline void inject(sim::SequenceSimulator& m, const Fault& f,
                   std::uint64_t slot_mask = ~0ULL) {
  if (f.pin == kOutputPin) {
    m.add_output_override(f.node, f.stuck_at, slot_mask);
  } else {
    m.add_input_override(f.node, static_cast<unsigned>(f.pin), f.stuck_at,
                         slot_mask);
  }
}

/// The slots whose good launch-line value `lv` launches `f` in the next
/// frame: those that settled to the transition's initial value.  An X launch
/// leaves the fault inactive, a sound under-approximation, since every
/// reported detection is simulator-verified.
inline std::uint64_t launch_activity(const Fault& f, sim::PackedV3 lv) {
  return f.stuck_at ? lv.v1 : lv.v0;
}

/// Gates a transition fault's overrides on `faulty` for its first frame:
/// active iff `launch_prev`, the good launch-line value in the frame before,
/// equals the initial value (kX is the power-up frame, which cannot launch).
/// Sets both activity masks; call it before the overrides are forced
/// (inject, reset, set_state) so the initial source forcing is gated too.
/// No-op for stuck-at faults.
inline void begin_launch(sim::SequenceSimulator& faulty, const Fault& f,
                         sim::V3 launch_prev = sim::V3::kX) {
  if (!f.is_transition()) return;
  const std::uint64_t act =
      launch_prev == (f.stuck_at ? sim::V3::k1 : sim::V3::k0) ? ~0ULL : 0;
  faulty.set_override_activity(act);
  faulty.set_latch_override_activity(act);
}

/// Ends a frame of a lockstep good/faulty pair under `f`; `latch(m)` clocks
/// one machine (clock() or a cone-restricted latch).  A transition fault's
/// next-frame activity is read off the settled good frame at `line`
/// (launch_line(c, f)): the latch mask must be in place before the clock
/// edge, because the latched forcing lands in the next frame, and the
/// current-frame mask rolls over after it.
template <class Latch>
void end_frame(sim::SequenceSimulator& good, sim::SequenceSimulator& faulty,
               const Fault& f, netlist::NodeId line, Latch&& latch) {
  if (!f.is_transition()) {
    latch(good);
    latch(faulty);
    return;
  }
  const std::uint64_t next_act = launch_activity(f, good.value(line));
  faulty.set_latch_override_activity(next_act);
  latch(good);
  latch(faulty);
  faulty.set_override_activity(next_act);
}

}  // namespace gatpg::fault
