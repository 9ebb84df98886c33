#include "fault/faultsim.h"

#include <algorithm>

#include "fault/inject.h"

namespace gatpg::fault {

using netlist::NodeId;
using sim::PackedV3;
using sim::Sequence;
using sim::State3;
using sim::V3;

namespace {

/// Slots of `a` whose value differs from the scalar `good` (any difference,
/// including defined-vs-X in either direction — the exactness of the
/// differential screen depends on counting weak differences too, because
/// they can park into the state and matter later).
std::uint64_t differing_slots(PackedV3 a, V3 good) {
  switch (good) {
    case V3::k1:
      return ~a.v1;
    case V3::k0:
      return ~a.v0;
    default:
      return a.v1 | a.v0;
  }
}

}  // namespace

FaultSimulator::FaultSimulator(const netlist::Circuit& c,
                               std::vector<Fault> faults,
                               FaultSimConfig config)
    : c_(c),
      faults_(std::move(faults)),
      config_(config),
      detected_(faults_.size(), 0),
      good_(c),
      faulty_state_(faults_.size(),
                    State3(c.flip_flops().size(), V3::kX)),
      launch_prev_(faults_.size(), V3::kX) {
  for (const Fault& f : faults_) {
    if (f.is_transition()) {
      any_transition_ = true;
      break;
    }
  }
}

void FaultSimulator::reset_machines() {
  good_.reset();
  for (auto& s : faulty_state_) {
    s.assign(c_.flip_flops().size(), V3::kX);
  }
  launch_prev_.assign(faults_.size(), V3::kX);
}

void FaultSimulator::reset_all() {
  reset_machines();
  std::fill(detected_.begin(), detected_.end(), 0);
  num_detected_ = 0;
}

void FaultSimulator::ensure_lanes(unsigned lanes) const {
  if (lanes_.size() < lanes) lanes_.resize(lanes);
}

void FaultSimulator::drain_lane_stats(unsigned lanes) const {
  for (unsigned l = 0; l < lanes && l < lanes_.size(); ++l) {
    Lane& lane = lanes_[l];
    stats_ += lane.stats;
    lane.stats = SimStats{};
    if (lane.machine) {
      stats_.gate_evals += lane.machine->gate_evals();
      lane.machine->reset_gate_evals();
    }
  }
}

void FaultSimulator::simulate_differential(
    sim::SequenceSimulator& good, const std::vector<std::size_t>& fault_indices,
    const Sequence& seq, std::vector<State3>& states, std::vector<V3>& launch,
    std::vector<char>& live, std::vector<Detection>& detections,
    std::vector<State3>* good_sink) const {
  const auto pos = c_.primary_outputs();
  const auto ffs = c_.flip_flops();
  const std::size_t nff = ffs.size();
  const std::size_t total = seq.size();
  const std::size_t window = std::max<std::size_t>(1, config_.window);

  const std::uint64_t good_evals_before = good.gate_evals();

  // Excitation-screen site info, one entry per fault: the good-machine line
  // whose value feeds the fault site (launch_line), the stuck value, and —
  // for flip-flop output faults, which also force the *next* state at latch
  // time — the D line as a second excitation source.  For transition faults
  // `line` is also the launch line and `stuck` the transition's initial
  // value; the stuck-at excitation screen stays a sound superset for them
  // (activity only further restricts when the forcing can diverge from the
  // good machine).
  struct Site {
    NodeId line = netlist::kNoNode;
    NodeId extra = netlist::kNoNode;
    V3 stuck = V3::k0;
    bool transition = false;
  };
  std::vector<Site> sites(fault_indices.size());
  for (std::size_t i = 0; i < fault_indices.size(); ++i) {
    const Fault& f = faults_[fault_indices[i]];
    Site& s = sites[i];
    s.line = launch_line(c_, f);
    s.stuck = f.stuck_at ? V3::k1 : V3::k0;
    s.transition = f.is_transition();
    if (f.pin == kOutputPin && c_.type(f.node) == netlist::GateType::kDff) {
      s.extra = c_.fanins(f.node)[0];
    }
  }

  // Window-reused good-machine recording buffers.
  std::vector<std::vector<PackedV3>> good_frames(window);
  std::vector<State3> good_present(window, State3(nff));
  std::vector<State3> good_next(window, State3(nff));
  std::vector<std::vector<std::pair<NodeId, V3>>> good_po(window);

  // Dense packing of the still-live sweep positions, in stable fault-index
  // order.  Built once up front; at every window boundary it is compacted in
  // place with the liveness the surviving-slot write-back just produced —
  // one pass over the survivors instead of a rescan of the full fault list.
  std::vector<std::size_t> order;
  order.reserve(fault_indices.size());
  for (std::size_t i = 0; i < fault_indices.size(); ++i) {
    if (live[i]) order.push_back(i);
  }
  std::size_t prev_live = fault_indices.size();

  for (std::size_t t0 = 0; t0 < total; t0 += window) {
    const std::size_t wlen = std::min(window, total - t0);

    // Pass 1: advance the good machine, recording each settled frame (node
    // values after apply, before clock), the present/next state scalars the
    // screen tests against, and the defined primary-output values.
    for (std::size_t k = 0; k < wlen; ++k) {
      good.apply_vector(seq[t0 + k]);
      good_frames[k] = good.node_values();
      for (std::size_t ff = 0; ff < nff; ++ff) {
        good_present[k][ff] = good_frames[k][ffs[ff]].get(0);
        good_next[k][ff] = good_frames[k][c_.fanins(ffs[ff])[0]].get(0);
      }
      good_po[k].clear();
      for (NodeId p : pos) {
        const V3 v = good_frames[k][p].get(0);
        if (v != V3::kX) good_po[k].emplace_back(p, v);
      }
      if (good_sink) good_sink->push_back(good_next[k]);
      good.clock();
    }

    // Dynamic repack: the maintained `order` packing is already dense and in
    // stable fault-index order (deterministic and thread-count-independent
    // by construction); groups are carved from it 64 at a time.
    if (order.empty()) continue;  // keep advancing the good machine
    if (t0 > 0 && order.size() < prev_live) {
      stats_.groups_repacked += (order.size() + 63) / 64;
    }
    prev_live = order.size();

    const std::size_t n_groups = (order.size() + 63) / 64;
    std::vector<std::vector<Detection>> group_dets(n_groups);
    const unsigned lanes = util::max_lanes(config_.parallel, order.size(), 64);
    ensure_lanes(lanes);

    util::parallel_for_chunks(
        config_.parallel, order.size(), 64,
        [&](std::size_t g, std::size_t begin, std::size_t end, unsigned lane) {
          Lane& scratch = lanes_[lane];
          if (!scratch.machine) {
            scratch.machine = std::make_unique<sim::SequenceSimulator>(c_);
          }
          sim::SequenceSimulator& machine = *scratch.machine;
          const std::size_t count = end - begin;

          machine.clear_overrides();
          for (std::size_t s = 0; s < count; ++s) {
            inject(machine, faults_[fault_indices[order[begin + s]]],
                   1ULL << s);
          }

          // Packed faulty present state; unused high slots track the good
          // state so they never disturb the event propagation.
          scratch.ff.assign(nff, PackedV3::all_x());
          for (std::size_t ff = 0; ff < nff; ++ff) {
            PackedV3 w = PackedV3::broadcast(good_present[0][ff]);
            for (std::size_t s = 0; s < count; ++s) {
              w.set(static_cast<unsigned>(s), states[order[begin + s]][ff]);
            }
            scratch.ff[ff] = w;
          }

          // Transition launch anchors, one per slot: the good value of the
          // slot's launch line in the frame before the current one (window
          // entry: the caller-carried value).
          bool group_trans = false;
          if (any_transition_) {
            for (std::size_t s = 0; s < count; ++s) {
              if (sites[order[begin + s]].transition) {
                group_trans = true;
                break;
              }
            }
          }
          std::vector<V3> lprev;
          if (group_trans) {
            lprev.resize(count);
            for (std::size_t s = 0; s < count; ++s) {
              lprev[s] = launch[order[begin + s]];
            }
          }

          std::uint64_t live_mask =
              count == 64 ? ~0ULL : ((1ULL << count) - 1);
          for (std::size_t k = 0; k < wlen && live_mask; ++k) {
            ++scratch.stats.group_vectors;

            // Per-frame override activity: a transition slot forces only
            // when its launch line held the initial value in the previous
            // frame (act), and its flip-flop latch forcing only when it
            // holds it in this frame (act_next — the latch lands in the
            // next frame).  Stuck-at slots stay unconditionally active.
            std::uint64_t act = ~0ULL;
            std::uint64_t act_next = ~0ULL;
            if (group_trans) {
              for (std::size_t s = 0; s < count; ++s) {
                const Site& site = sites[order[begin + s]];
                if (!site.transition) continue;
                if (lprev[s] != site.stuck) act &= ~(1ULL << s);
                const V3 nl = good_frames[k][site.line].get(0);
                if (nl != site.stuck) act_next &= ~(1ULL << s);
                lprev[s] = nl;
              }
            }

            // Excitation/activity screen: a slot can differ from the good
            // machine this vector only if its fault site is excited by the
            // good values or its state carries parked fault effects.
            std::uint64_t active = 0;
            for (std::size_t s = 0; s < count; ++s) {
              const Site& site = sites[order[begin + s]];
              bool ex = good_frames[k][site.line].get(0) != site.stuck;
              if (!ex && site.extra != netlist::kNoNode) {
                ex = good_frames[k][site.extra].get(0) != site.stuck;
              }
              active |= static_cast<std::uint64_t>(ex) << s;
            }
            for (std::size_t ff = 0; ff < nff; ++ff) {
              active |= differing_slots(scratch.ff[ff], good_present[k][ff]);
            }
            active &= live_mask;
            if (!active) {
              // Provable no-op: every live slot equals the good machine
              // everywhere, so the frame cannot detect and the faulty state
              // just tracks the good next state.
              ++scratch.stats.group_vectors_skipped;
              for (std::size_t ff = 0; ff < nff; ++ff) {
                scratch.ff[ff] = PackedV3::broadcast(good_next[k][ff]);
              }
              continue;
            }

            if (group_trans) {
              machine.set_override_activity(act);
              machine.set_latch_override_activity(act_next);
            }
            machine.apply_differential(good_frames[k], scratch.ff);

            std::uint64_t hit = 0;
            for (const auto& [p, gv] : good_po[k]) {
              const PackedV3 w = machine.value(p);
              hit |= gv == V3::k1 ? w.v0 : w.v1;
            }
            hit &= live_mask;
            const bool retired = hit != 0;
            while (hit) {
              const unsigned s = static_cast<unsigned>(__builtin_ctzll(hit));
              hit &= hit - 1;
              live_mask &= ~(1ULL << s);
              group_dets[g].push_back(
                  {static_cast<std::uint32_t>(order[begin + s]),
                   static_cast<std::uint32_t>(t0 + k)});
            }
            // Retire freshly detected slots on the spot: drop their fault
            // injection and snap their state onto the good machine below, so
            // they stop generating differential events immediately instead
            // of at the next repack boundary.
            if (retired) machine.retain_override_slots(live_mask);

            for (std::size_t ff = 0; ff < nff; ++ff) {
              // Live slots latch their faulty next state; dead and unused
              // slots track the good machine (zero-event ghosts).
              const PackedV3 faulty = machine.next_state_packed(ff);
              const PackedV3 g_next = PackedV3::broadcast(good_next[k][ff]);
              scratch.ff[ff] = {(faulty.v1 & live_mask) |
                                    (g_next.v1 & ~live_mask),
                                (faulty.v0 & live_mask) |
                                    (g_next.v0 & ~live_mask)};
            }
          }

          // Write back survivors' states; mark detected slots dead.
          for (std::size_t s = 0; s < count; ++s) {
            const std::size_t p = order[begin + s];
            if (!(live_mask & (1ULL << s))) {
              live[p] = 0;
              continue;
            }
            for (std::size_t ff = 0; ff < nff; ++ff) {
              states[p][ff] = scratch.ff[ff].get(static_cast<unsigned>(s));
            }
          }
        });

    drain_lane_stats(lanes);
    for (std::size_t g = 0; g < n_groups; ++g) {
      detections.insert(detections.end(), group_dets[g].begin(),
                        group_dets[g].end());
    }

    // One-pass repack: reuse the liveness the write-back just produced to
    // compact the packing in place — next window's dense groups come for
    // free instead of from a full-fault-list rescan.
    std::size_t kept = 0;
    for (const std::size_t i : order) {
      if (live[i]) order[kept++] = i;
    }
    order.resize(kept);

    // Advance the carried launch anchors to the last frame of this window
    // (the good value each launch line settled to): the next window's groups
    // — and, after the final window, the caller's persisted launch_prev_ —
    // read their entry launches from here.
    if (any_transition_) {
      for (std::size_t i = 0; i < fault_indices.size(); ++i) {
        launch[i] = good_frames[wlen - 1][sites[i].line].get(0);
      }
    }
  }

  stats_.frames += total;
  stats_.good_gate_evals += good.gate_evals() - good_evals_before;
}

std::vector<std::size_t> FaultSimulator::run(const Sequence& seq) {
  std::vector<std::size_t> newly;
  if (seq.empty()) return newly;

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (!detected_[i]) pending.push_back(i);
  }
  std::vector<State3> states;
  states.reserve(pending.size());
  for (std::size_t i : pending) states.push_back(faulty_state_[i]);
  std::vector<V3> launch;
  launch.reserve(pending.size());
  for (std::size_t i : pending) launch.push_back(launch_prev_[i]);
  std::vector<char> live(pending.size(), 1);
  std::vector<Detection> dets;

  simulate_differential(good_, pending, seq, states, launch, live, dets,
                        good_sink_);

  // Report detections in plain group-sweep order regardless of windowing and
  // repacking: group-of-origin (pending position / 64) first, then detection
  // time, then slot.
  std::sort(dets.begin(), dets.end(),
            [](const Detection& a, const Detection& b) {
              if ((a.pos >> 6) != (b.pos >> 6)) {
                return (a.pos >> 6) < (b.pos >> 6);
              }
              if (a.t != b.t) return a.t < b.t;
              return a.pos < b.pos;
            });
  for (const Detection& d : dets) {
    const std::size_t fi = pending[d.pos];
    detected_[fi] = 1;
    ++num_detected_;
    newly.push_back(fi);
  }
  // Persist faulty flip-flop states for still-undetected faults only (faults
  // detected during this run keep their pre-run state).  Launch anchors are
  // good-machine values, so they advance for every fault uniformly.
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (live[i]) faulty_state_[pending[i]] = std::move(states[i]);
  }
  if (any_transition_) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      launch_prev_[pending[i]] = launch[i];
    }
  }
  return newly;
}

FaultSimulator::WhatIf FaultSimulator::what_if(
    std::span<const std::size_t> fault_indices, const Sequence& seq) const {
  WhatIf result;
  if (seq.empty() || fault_indices.empty()) return result;

  sim::SequenceSimulator good = good_;  // copy: session state untouched
  good.reset_gate_evals();
  std::vector<std::size_t> idx(fault_indices.begin(), fault_indices.end());
  std::vector<State3> states;
  states.reserve(idx.size());
  for (std::size_t i : idx) states.push_back(faulty_state_[i]);
  // Local copy of the launch anchors: what-if continues the session (same
  // entry launches as run() would use) but must not mutate it.
  std::vector<V3> launch;
  launch.reserve(idx.size());
  for (std::size_t i : idx) launch.push_back(launch_prev_[i]);
  std::vector<char> live(idx.size(), 1);
  std::vector<Detection> dets;

  simulate_differential(good, idx, seq, states, launch, live, dets, nullptr);

  result.detected = static_cast<unsigned>(dets.size());
  // Fault effects parked in the state at sequence end (undetected slots
  // whose faulty flip-flop value is defined and differs from the good
  // machine's defined value).
  const State3 good_final = good.state();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (!live[i]) continue;
    for (std::size_t ff = 0; ff < good_final.size(); ++ff) {
      const V3 g = good_final[ff];
      const V3 b = states[i][ff];
      if (g != V3::kX && b != V3::kX && g != b) {
        ++result.state_effects;
        break;
      }
    }
  }
  return result;
}

bool FaultSimulator::would_detect(std::size_t fault_index,
                                  const Sequence& seq) const {
  return would_detect_from(c_, good_, faulty_state_[fault_index],
                           faults_[fault_index], seq,
                           launch_prev_[fault_index]);
}

bool FaultSimulator::would_detect_from(const netlist::Circuit& c,
                                       const sim::SequenceSimulator& good_start,
                                       const sim::State3& faulty_state,
                                       const Fault& f, const Sequence& seq,
                                       V3 launch_prev) {
  sim::SequenceSimulator good = good_start;  // copy: caller state untouched
  sim::SequenceSimulator faulty(c);
  const NodeId line = launch_line(c, f);
  begin_launch(faulty, f, launch_prev);
  inject(faulty, f);
  faulty.set_state(faulty_state);

  const auto pos = c.primary_outputs();
  for (const auto& v : seq) {
    good.apply_vector(v);
    faulty.apply_vector(v);
    for (NodeId po : pos) {
      const V3 g = good.scalar_value(po);
      const V3 b = faulty.scalar_value(po);
      if (g != V3::kX && b != V3::kX && g != b) return true;
    }
    end_frame(good, faulty, f, line,
              [](sim::SequenceSimulator& m) { m.clock(); });
  }
  return false;
}

bool FaultSimulator::detects(const netlist::Circuit& c, const Fault& f,
                             const Sequence& seq) {
  FaultSimulator fs(c, {f});
  return !fs.run(seq).empty();
}

}  // namespace gatpg::fault
