// Independent reference implementations for differential testing.
//
// Deliberately written in the most naive possible style (scalar, oblivious,
// recomputing everything every cycle) and sharing no evaluation code with
// src/sim — the production simulators are tested against these.
#pragma once

#include <optional>
#include <vector>

#include "fault/fault.h"
#include "netlist/circuit.h"
#include "sim/seqsim.h"

namespace gatpg::test {

/// Scalar 3-valued evaluation of one combinational gate over its fanin
/// values (in pin order).  Non-combinational types yield X.
inline sim::V3 reference_gate(netlist::GateType t,
                              const std::vector<sim::V3>& in) {
  using netlist::GateType;
  using sim::V3;
  auto all = [&](V3 want) {
    for (V3 v : in) {
      if (v != want) return false;
    }
    return true;
  };
  auto any = [&](V3 want) {
    for (V3 v : in) {
      if (v == want) return true;
    }
    return false;
  };
  V3 out = V3::kX;
  switch (t) {
    case GateType::kBuf:
      out = in[0];
      break;
    case GateType::kNot:
      out = sim::v3_not(in[0]);
      break;
    case GateType::kAnd:
    case GateType::kNand:
      out = any(V3::k0) ? V3::k0 : (all(V3::k1) ? V3::k1 : V3::kX);
      if (t == GateType::kNand) out = sim::v3_not(out);
      break;
    case GateType::kOr:
    case GateType::kNor:
      out = any(V3::k1) ? V3::k1 : (all(V3::k0) ? V3::k0 : V3::kX);
      if (t == GateType::kNor) out = sim::v3_not(out);
      break;
    case GateType::kXor:
    case GateType::kXnor: {
      bool parity = false, has_x = false;
      for (V3 v : in) {
        if (v == V3::kX) has_x = true;
        if (v == V3::k1) parity = !parity;
      }
      out = has_x ? V3::kX : (parity ? V3::k1 : V3::k0);
      if (t == GateType::kXnor) out = sim::v3_not(out);
      break;
    }
    default:
      break;
  }
  return out;
}

/// Scalar 3-valued oblivious sequence simulator with optional fault
/// injection.  Returns per-cycle PO values and leaves the final state in
/// `final_state`.
class ReferenceSimulator {
 public:
  explicit ReferenceSimulator(const netlist::Circuit& c,
                              std::optional<fault::Fault> f = std::nullopt)
      : c_(c), fault_(f), value_(c.node_count(), sim::V3::kX) {
    for (netlist::NodeId n = 0; n < c_.node_count(); ++n) {
      if (c_.type(n) == netlist::GateType::kConst0) value_[n] = sim::V3::k0;
      if (c_.type(n) == netlist::GateType::kConst1) value_[n] = sim::V3::k1;
    }
  }

  void set_state(const sim::State3& s) {
    const auto ffs = c_.flip_flops();
    for (std::size_t i = 0; i < ffs.size(); ++i) value_[ffs[i]] = s[i];
  }

  /// Transition-fault activity gating, mirroring the production two-frame
  /// launch/capture mapping: the combinational forcing sites (gate pins,
  /// frame-t D-pin capture) obey `set_fault_active`, while the value a
  /// flip-flop output presents *after* the clock edge obeys
  /// `set_latch_fault_active` (the activity of the next frame).  Both
  /// default true so stuck-at callers behave exactly as before.
  void set_fault_active(bool a) { active_ = a; }
  void set_latch_fault_active(bool a) { latch_active_ = a; }

  /// Applies one vector (combinational settle), returns PO values.
  std::vector<sim::V3> apply(const sim::Vector3& in) {
    const auto pis = c_.primary_inputs();
    for (std::size_t i = 0; i < pis.size(); ++i) value_[pis[i]] = in[i];
    force_stem_sources(active_);
    for (netlist::NodeId g : c_.topo_order()) value_[g] = eval(g);
    std::vector<sim::V3> po;
    for (netlist::NodeId p : c_.primary_outputs()) po.push_back(value_[p]);
    return po;
  }

  void clock() {
    const auto ffs = c_.flip_flops();
    std::vector<sim::V3> next(ffs.size());
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      sim::V3 v = value_[c_.fanins(ffs[i])[0]];
      if (fault_ && fault_->node == ffs[i] && fault_->pin == 0 && active_) {
        v = stuck_value();
      }
      if (fault_ && fault_->node == ffs[i] &&
          fault_->pin == fault::kOutputPin && latch_active_) {
        v = stuck_value();
      }
      next[i] = v;
    }
    for (std::size_t i = 0; i < ffs.size(); ++i) value_[ffs[i]] = next[i];
    force_stem_sources(latch_active_);
  }

  sim::V3 value(netlist::NodeId n) const { return value_[n]; }

  sim::State3 state() const {
    sim::State3 s;
    for (netlist::NodeId ff : c_.flip_flops()) s.push_back(value_[ff]);
    return s;
  }

 private:
  sim::V3 stuck_value() const {
    return fault_->stuck_at ? sim::V3::k1 : sim::V3::k0;
  }

  void force_stem_sources(bool gate) {
    if (!gate || !fault_ || fault_->pin != fault::kOutputPin) return;
    const auto t = c_.type(fault_->node);
    if (!netlist::is_combinational(t)) value_[fault_->node] = stuck_value();
  }

  sim::V3 eval(netlist::NodeId g) const {
    using sim::V3;
    std::vector<V3> in;
    const auto fanins = c_.fanins(g);
    for (std::size_t p = 0; p < fanins.size(); ++p) {
      V3 v = value_[fanins[p]];
      if (fault_ && fault_->node == g && fault_->pin == static_cast<int>(p) &&
          active_) {
        v = stuck_value();
      }
      in.push_back(v);
    }
    V3 out = reference_gate(c_.type(g), in);
    if (fault_ && fault_->node == g && fault_->pin == fault::kOutputPin &&
        active_) {
      out = stuck_value();
    }
    return out;
  }

  const netlist::Circuit& c_;
  std::optional<fault::Fault> fault_;
  std::vector<sim::V3> value_;
  bool active_ = true;
  bool latch_active_ = true;
};

/// Ground-truth single-fault detection by reference simulation.  Transition
/// faults run the same lockstep loop with per-frame activity: a frame is a
/// capture frame iff the good machine's settled value of the launch line in
/// the *preceding* frame was defined-equal to the launch value (power-up and
/// X launches are inactive — the production simulators' under-approximation).
inline bool reference_detects(const netlist::Circuit& c, const fault::Fault& f,
                              const sim::Sequence& seq) {
  ReferenceSimulator good(c);
  ReferenceSimulator bad(c, f);
  const netlist::NodeId launch_line =
      f.pin == fault::kOutputPin
          ? f.node
          : c.fanins(f.node)[static_cast<std::size_t>(f.pin)];
  const sim::V3 launch = f.stuck_at ? sim::V3::k1 : sim::V3::k0;
  bool act = !f.is_transition();  // transition: power-up frame cannot capture
  for (const auto& v : seq) {
    if (f.is_transition()) bad.set_fault_active(act);
    const auto gp = good.apply(v);
    const auto bp = bad.apply(v);
    for (std::size_t i = 0; i < gp.size(); ++i) {
      if (gp[i] != sim::V3::kX && bp[i] != sim::V3::kX && gp[i] != bp[i]) {
        return true;
      }
    }
    if (f.is_transition()) {
      act = good.value(launch_line) == launch;
      bad.set_latch_fault_active(act);
    }
    good.clock();
    bad.clock();
  }
  return false;
}

}  // namespace gatpg::test
