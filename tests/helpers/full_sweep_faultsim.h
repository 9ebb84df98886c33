// Full-sweep reference fault simulator: the naive oracle that the PROOFS
// differential engine (fault::FaultSimulator) is checked against.
//
// Every run()/what_if() simulates the good machine over the sequence once,
// then sweeps every fault group over the whole sequence: 64 faults per
// packed machine, reset to all-X, loaded with the faults' persisted faulty
// flip-flop states, and re-evaluated event-driven vector by vector from the
// primary inputs.  No good-machine seeding, no excitation screen, no
// repacking, no worker pool — built only from the public
// sim::SequenceSimulator API.  It keeps the same session contract as the
// production simulator (persistent faulty state and transition launch
// anchors across run() calls, fault dropping, detection order by group,
// frame and slot), so the two must agree bit for bit.
//
// SimStats are counted in the production units (faulty- and good-machine
// gate evaluations, frames, group vectors), which makes this the baseline
// bench_faultsim measures the differential engine's gate-eval reduction
// against.  It never skips or repacks, so those two counters stay zero.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "fault/faultsim.h"
#include "netlist/circuit.h"
#include "sim/seqsim.h"

namespace gatpg::test {

class FullSweepFaultSim {
 public:
  using WhatIf = fault::FaultSimulator::WhatIf;

  FullSweepFaultSim(const netlist::Circuit& c, std::vector<fault::Fault> faults)
      : c_(c),
        faults_(std::move(faults)),
        detected_(faults_.size(), 0),
        good_(c),
        machine_(c),
        faulty_state_(faults_.size(),
                      sim::State3(c.flip_flops().size(), sim::V3::kX)),
        launch_prev_(faults_.size(), sim::V3::kX) {
    for (const fault::Fault& f : faults_) {
      if (f.is_transition()) any_transition_ = true;
    }
  }

  /// Simulates `seq` as a continuation of the session; returns the indices
  /// of newly detected faults in (group, frame, slot) order.
  std::vector<std::size_t> run(const sim::Sequence& seq) {
    std::vector<std::size_t> newly;
    if (seq.empty()) return newly;
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < faults_.size(); ++i) {
      if (!detected_[i]) pending.push_back(i);
    }
    const Sweep sw = sweep(good_, pending, seq);
    for (const std::size_t pos : sw.order) {
      detected_[pending[pos]] = 1;
      ++num_detected_;
      newly.push_back(pending[pos]);
    }
    for (std::size_t i = 0; i < pending.size(); ++i) {
      // Faults detected during this run keep their pre-run state; launch
      // anchors are good-machine values and advance for every fault.
      if (!sw.detected[i]) faulty_state_[pending[i]] = sw.final_state[i];
      if (any_transition_) launch_prev_[pending[i]] = sw.launch[i];
    }
    return newly;
  }

  /// Non-mutating what-if over a fault subset: detections, and undetected
  /// faults left with a defined good/faulty flip-flop difference at the end.
  WhatIf what_if(std::span<const std::size_t> fault_indices,
                 const sim::Sequence& seq) const {
    WhatIf result;
    if (seq.empty() || fault_indices.empty()) return result;
    sim::SequenceSimulator good = good_;
    const std::vector<std::size_t> idx(fault_indices.begin(),
                                       fault_indices.end());
    const Sweep sw = sweep(good, idx, seq);
    const sim::State3 good_final = good.state();
    for (std::size_t i = 0; i < idx.size(); ++i) {
      if (sw.detected[i]) {
        ++result.detected;
        continue;
      }
      for (std::size_t ff = 0; ff < good_final.size(); ++ff) {
        const sim::V3 g = good_final[ff];
        const sim::V3 b = sw.final_state[i][ff];
        if (g != sim::V3::kX && b != sim::V3::kX && g != b) {
          ++result.state_effects;
          break;
        }
      }
    }
    return result;
  }

  void reset_all() {
    good_.reset();
    for (auto& s : faulty_state_) s.assign(c_.flip_flops().size(), sim::V3::kX);
    launch_prev_.assign(faults_.size(), sim::V3::kX);
    std::fill(detected_.begin(), detected_.end(), 0);
    num_detected_ = 0;
  }

  const std::vector<char>& detected() const { return detected_; }
  std::size_t detected_count() const { return num_detected_; }
  sim::State3 good_state() const { return good_.state(0); }
  const sim::State3& fault_state(std::size_t i) const {
    return faulty_state_[i];
  }
  sim::V3 launch_prev(std::size_t i) const { return launch_prev_[i]; }
  const fault::SimStats& stats() const { return stats_; }
  void reset_stats() { stats_ = fault::SimStats{}; }

 private:
  /// One sweep of the faults `indices` over `seq`, advancing `good`.
  /// Per-position results: detected flags, detection order, faulty state at
  /// sequence end (kept only for undetected positions), and, for transition
  /// sessions, each fault's good launch-line value in the last frame.
  struct Sweep {
    std::vector<std::size_t> order;
    std::vector<char> detected;
    std::vector<sim::State3> final_state;
    std::vector<sim::V3> launch;
  };

  Sweep sweep(sim::SequenceSimulator& good,
              const std::vector<std::size_t>& indices,
              const sim::Sequence& seq) const {
    using sim::PackedV3;
    using sim::V3;
    const auto pos = c_.primary_outputs();
    const auto ffs = c_.flip_flops();
    const std::size_t n = indices.size();

    // Good machine: PO values and, for transition sessions, every fault's
    // launch-line value per frame.
    std::vector<std::vector<V3>> good_po(seq.size(),
                                         std::vector<V3>(pos.size()));
    std::vector<std::vector<V3>> good_launch(
        seq.size(), std::vector<V3>(any_transition_ ? n : 0));
    const std::uint64_t good_before = good.gate_evals();
    for (std::size_t t = 0; t < seq.size(); ++t) {
      good.apply_vector(seq[t]);
      for (std::size_t p = 0; p < pos.size(); ++p) {
        good_po[t][p] = good.scalar_value(pos[p]);
      }
      for (std::size_t i = 0; i < good_launch[t].size(); ++i) {
        good_launch[t][i] = good.scalar_value(launch_line(faults_[indices[i]]));
      }
      good.clock();
    }
    stats_.frames += seq.size();
    stats_.good_gate_evals += good.gate_evals() - good_before;

    std::vector<std::vector<PackedV3>> packed(
        seq.size(), std::vector<PackedV3>(c_.primary_inputs().size()));
    for (std::size_t t = 0; t < seq.size(); ++t) {
      for (std::size_t p = 0; p < packed[t].size(); ++p) {
        packed[t][p] = PackedV3::broadcast(seq[t][p]);
      }
    }

    Sweep out;
    out.detected.assign(n, 0);
    out.final_state.assign(n, sim::State3(ffs.size(), V3::kX));
    out.launch = good_launch.back();
    const std::uint64_t evals_before = machine_.gate_evals();
    for (std::size_t begin = 0; begin < n; begin += 64) {
      const std::size_t count = std::min<std::size_t>(64, n - begin);
      machine_.clear_overrides();
      machine_.reset();
      std::uint64_t trans_bits = 0;
      for (std::size_t s = 0; s < count; ++s) {
        const fault::Fault& f = faults_[indices[begin + s]];
        const std::uint64_t mask = 1ULL << s;
        if (f.pin == fault::kOutputPin) {
          machine_.add_output_override(f.node, f.stuck_at, mask);
        } else {
          machine_.add_input_override(f.node, static_cast<unsigned>(f.pin),
                                      f.stuck_at, mask);
        }
        if (f.is_transition()) trans_bits |= mask;
      }
      // Transition slots stay inactive while the persisted states load, so
      // flip-flop output forcing cannot clobber them; the frame loop
      // installs the real per-frame activity before the first apply.
      machine_.set_override_activity(~trans_bits);
      machine_.set_latch_override_activity(~trans_bits);
      std::vector<V3> lprev(count);
      for (std::size_t s = 0; s < count; ++s) {
        lprev[s] = launch_prev_[indices[begin + s]];
      }
      for (std::size_t ff = 0; ff < ffs.size(); ++ff) {
        PackedV3 w = PackedV3::all_x();
        for (std::size_t s = 0; s < count; ++s) {
          w.set(static_cast<unsigned>(s),
                faulty_state_[indices[begin + s]][ff]);
        }
        machine_.set_ff_packed(ff, w);
      }

      stats_.group_vectors += seq.size();
      std::uint64_t live = count == 64 ? ~0ULL : ((1ULL << count) - 1);
      for (std::size_t t = 0; t < seq.size(); ++t) {
        // A transition slot forces only when its launch line held the
        // initial value in the previous frame; its latch forcing lands in
        // the next frame, so it reads this frame's launch value.
        if (trans_bits) {
          std::uint64_t act = ~0ULL;
          std::uint64_t act_next = ~0ULL;
          for (std::size_t s = 0; s < count; ++s) {
            if (!(trans_bits >> s & 1)) continue;
            const V3 initial =
                faults_[indices[begin + s]].stuck_at ? V3::k1 : V3::k0;
            if (lprev[s] != initial) act &= ~(1ULL << s);
            lprev[s] = good_launch[t][begin + s];
            if (lprev[s] != initial) act_next &= ~(1ULL << s);
          }
          machine_.set_override_activity(act);
          machine_.set_latch_override_activity(act_next);
        }
        machine_.apply_packed(packed[t]);
        std::uint64_t hit = 0;
        for (std::size_t p = 0; p < pos.size(); ++p) {
          if (good_po[t][p] == V3::kX) continue;
          const PackedV3 w = machine_.value(pos[p]);
          hit |= good_po[t][p] == V3::k1 ? w.v0 : w.v1;
        }
        hit &= live;
        for (std::size_t s = 0; s < count; ++s) {
          if (!(hit >> s & 1)) continue;
          live &= ~(1ULL << s);
          out.detected[begin + s] = 1;
          out.order.push_back(begin + s);
        }
        machine_.clock();
      }
      for (std::size_t s = 0; s < count; ++s) {
        for (std::size_t ff = 0; ff < ffs.size(); ++ff) {
          out.final_state[begin + s][ff] =
              machine_.value(ffs[ff]).get(static_cast<unsigned>(s));
        }
      }
    }
    stats_.gate_evals += machine_.gate_evals() - evals_before;
    return out;
  }

  /// The good-machine line whose previous-frame value launches a transition
  /// fault (the node's output, or the driver of a branch fault's pin).
  netlist::NodeId launch_line(const fault::Fault& f) const {
    return f.pin == fault::kOutputPin
               ? f.node
               : c_.fanins(f.node)[static_cast<std::size_t>(f.pin)];
  }

  const netlist::Circuit& c_;
  std::vector<fault::Fault> faults_;
  std::vector<char> detected_;
  std::size_t num_detected_ = 0;
  sim::SequenceSimulator good_;
  // The one group machine, reused group after group; mutable because
  // what_if is logically const.
  mutable sim::SequenceSimulator machine_;
  std::vector<sim::State3> faulty_state_;
  // Stuck-at-only sessions leave the launch anchors at kX, as the
  // production simulator does.
  bool any_transition_ = false;
  std::vector<sim::V3> launch_prev_;
  mutable fault::SimStats stats_;
};

}  // namespace gatpg::test
