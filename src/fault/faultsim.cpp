#include "fault/faultsim.h"

#include <algorithm>
#include <utility>

#include "fault/inject.h"

namespace gatpg::fault {

using netlist::NodeId;
using sim::PackedV3;
using sim::Sequence;
using sim::State3;
using sim::V3;

namespace {

static_assert(static_cast<int>(V3::k0) == 0 && static_cast<int>(V3::k1) == 1 &&
              static_cast<int>(V3::kX) == 2);

/// Slots where `a` and `b` differ (any difference, including defined-vs-X in
/// either direction — the exactness of the differential screen depends on
/// counting weak differences too, because they can park into the state and
/// matter later).
std::uint64_t differing_slots(PackedV3 a, PackedV3 b) {
  return (a.v1 ^ b.v1) | (a.v0 ^ b.v0);
}

/// `a` in the slots of `mask`, `b` elsewhere.
PackedV3 blend(PackedV3 a, PackedV3 b, std::uint64_t mask) {
  return {(a.v1 & mask) | (b.v1 & ~mask), (a.v0 & mask) | (b.v0 & ~mask)};
}

/// Slot `s` of `w`, without a branch (k0 = 0, k1 = 1, kX = 2).
V3 slot_value(PackedV3 w, unsigned s) {
  const unsigned b1 = static_cast<unsigned>(w.v1 >> s) & 1;
  const unsigned b0 = static_cast<unsigned>(w.v0 >> s) & 1;
  return static_cast<V3>(2 - 2 * b0 - b1);
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
  d_line_.reserve(c.flip_flops().size());
  for (const NodeId ff : c.flip_flops()) d_line_.push_back(c.fanins(ff)[0]);
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
    sim::SequenceSimulator& good, std::span<const std::size_t> fault_indices,
    const Sequence& seq, std::vector<State3>* persist,
    std::vector<State3>* good_sink) const {
  const auto pos = c_.primary_outputs();
  const auto ffs = c_.flip_flops();
  const std::size_t nff = ffs.size();
  const std::size_t n = fault_indices.size();
  const std::size_t total = seq.size();
  const std::size_t window = std::max<std::size_t>(1, config_.window);
  Sweep& sw = sweep_;

  const std::uint64_t good_evals_before = good.gate_evals();

  sw.live.assign(n, 1);
  sw.dets.clear();
  sw.sites.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Fault& f = faults_[fault_indices[i]];
    Site& s = sw.sites[i];
    s.line = launch_line(c_, f);
    s.extra = f.pin == kOutputPin && c_.type(f.node) == netlist::GateType::kDff
                  ? c_.fanins(f.node)[0]
                  : netlist::kNoNode;
    s.stuck = f.stuck_at ? V3::k1 : V3::k0;
    s.transition = f.is_transition();
  }
  if (any_transition_) {
    sw.launch.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      sw.launch[i] = launch_prev_[fault_indices[i]];
    }
  }
  // Rows carry the states from window to window, and keep a what-if's final
  // states away from the persisted ones.
  if (!persist || total > window) sw.rows.resize(n * nff);
  sw.frames.resize(window);
  sw.po.resize(window);
  sw.changed_at.resize(window + 1);
  sw.good_final.resize(nff);

  // Dense packing of the still-live sweep positions, in stable position
  // order.  At every window boundary it is compacted in place with the
  // liveness the surviving-slot write-back just produced — one pass over the
  // survivors instead of a rescan of the full fault list.
  sw.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) sw.order[i] = i;
  std::size_t prev_live = n;

  for (std::size_t t0 = 0; t0 < total; t0 += window) {
    const std::size_t wlen = std::min(window, total - t0);
    const bool last_window = t0 + wlen == total;

    // Pass 1: advance the good machine, recording each settled frame (node
    // values after apply, before clock), the nodes that changed since the
    // frame before, and the defined primary-output values.
    sw.changed.clear();
    sw.changed_at[0] = 0;
    for (std::size_t k = 0; k < wlen; ++k) {
      good.apply_vector(seq[t0 + k]);
      const std::vector<PackedV3>& now = good.node_values();
      std::vector<PackedV3>& rec = sw.frames[k];
      if (k == 0) {
        rec = now;
      } else {
        const std::vector<PackedV3>& prev = sw.frames[k - 1];
        rec.resize(now.size());
        for (NodeId v = 0; v < now.size(); ++v) {
          rec[v] = now[v];
          if (now[v] != prev[v]) sw.changed.push_back(v);
        }
      }
      sw.changed_at[k + 1] = sw.changed.size();
      sw.po[k].clear();
      for (NodeId p : pos) {
        const V3 v = now[p].get(0);
        if (v != V3::kX) sw.po[k].emplace_back(p, v);
      }
      good.clock();
      if (good_sink) good_sink->push_back(good.state());
    }
    for (std::size_t ff = 0; ff < nff; ++ff) {
      sw.good_final[ff] = good.scalar_value(ffs[ff]);
    }

    if (!sw.order.empty()) {
      if (t0 > 0 && sw.order.size() < prev_live) {
        stats_.groups_repacked += (sw.order.size() + 63) / 64;
      }
      prev_live = sw.order.size();
      const std::size_t n_groups = (sw.order.size() + 63) / 64;
      if (sw.group_dets.size() < n_groups) sw.group_dets.resize(n_groups);
      for (std::size_t g = 0; g < n_groups; ++g) sw.group_dets[g].clear();
      const unsigned lanes =
          util::max_lanes(config_.parallel, sw.order.size(), 64);
      ensure_lanes(lanes);

      // Groups are carved 64 at a time from the dense packing, which is in
      // stable position order (deterministic and thread-count-independent by
      // construction).
      util::parallel_for_chunks(
          config_.parallel, sw.order.size(), 64,
          [&](std::size_t g, std::size_t begin, std::size_t end,
              unsigned lane) {
            simulate_group(lanes_[lane], g, begin, end, t0, wlen, fault_indices,
                           last_window ? persist : nullptr);
          });

      drain_lane_stats(lanes);
      for (std::size_t g = 0; g < n_groups; ++g) {
        sw.dets.insert(sw.dets.end(), sw.group_dets[g].begin(),
                       sw.group_dets[g].end());
      }

      // One-pass repack: reuse the liveness the write-back just produced to
      // compact the packing in place — next window's dense groups come for
      // free instead of from a full-fault-list rescan.
      std::size_t kept = 0;
      for (const std::size_t i : sw.order) {
        if (sw.live[i]) sw.order[kept++] = i;
      }
      sw.order.resize(kept);
    }

    // Advance the carried launch anchors to the last frame of this window
    // (the good value each launch line settled to): the next window's groups
    // — and, after the final window, the caller's persisted launch_prev_ —
    // read their entry launches from here.
    if (any_transition_) {
      for (std::size_t i = 0; i < n; ++i) {
        sw.launch[i] = sw.frames[wlen - 1][sw.sites[i].line].get(0);
      }
    }
  }

  stats_.frames += total;
  stats_.good_gate_evals += good.gate_evals() - good_evals_before;
}

void FaultSimulator::simulate_group(Lane& lane, std::size_t g,
                                    std::size_t begin, std::size_t end,
                                    std::size_t t0, std::size_t wlen,
                                    std::span<const std::size_t> fault_indices,
                                    std::vector<State3>* persist) const {
  Sweep& sw = sweep_;
  const auto ffs = c_.flip_flops();
  const std::size_t nff = ffs.size();
  if (!lane.machine) {
    lane.machine = std::make_unique<sim::SequenceSimulator>(c_);
  }
  sim::SequenceSimulator& machine = *lane.machine;
  // The group's sweep positions, by slot.
  const std::span<const std::size_t> slots(sw.order.data() + begin,
                                           end - begin);
  const std::size_t count = slots.size();
  const std::uint64_t used = count == 64 ? ~0ULL : ((1ULL << count) - 1);

  machine.clear_overrides();
  lane.sites.resize(count);
  bool group_trans = false;
  for (std::size_t s = 0; s < count; ++s) {
    inject(machine, faults_[fault_indices[slots[s]]], 1ULL << s);
    lane.sites[s] = sw.sites[slots[s]];
    group_trans |= lane.sites[s].transition;
  }
  // Transition launch anchors, one per slot: the good value of the slot's
  // launch line in the frame before the current one (window entry: the
  // carried value).
  if (group_trans) {
    lane.lprev.resize(count);
    for (std::size_t s = 0; s < count; ++s) {
      lane.lprev[s] = sw.launch[slots[s]];
    }
  }

  // Load the carried states one fault row at a time; unused high slots hold
  // the good state so they never disturb the event propagation.  The
  // flip-flops that depart from the good state in some slot form the group's
  // faulty state, and those slots are the flip-flop part of the screen.
  const std::vector<PackedV3>& first = sw.frames[0];
  lane.load.resize(nff);
  for (std::size_t ff = 0; ff < nff; ++ff) {
    lane.load[ff] = blend(PackedV3::all_x(), first[ffs[ff]], used);
  }
  for (std::size_t s = 0; s < count; ++s) {
    const V3* row = t0 == 0 ? faulty_state_[fault_indices[slots[s]]].data()
                            : sw.rows.data() + slots[s] * nff;
    for (std::size_t ff = 0; ff < nff; ++ff) {
      lane.load[ff].v1 |= static_cast<std::uint64_t>(row[ff] == V3::k1) << s;
      lane.load[ff].v0 |= static_cast<std::uint64_t>(row[ff] == V3::k0) << s;
    }
  }
  lane.state.clear();
  std::uint64_t ff_active = 0;
  for (std::size_t ff = 0; ff < nff; ++ff) {
    const std::uint64_t d = differing_slots(lane.load[ff], first[ffs[ff]]);
    if (!d) continue;
    lane.state.push_back({static_cast<std::uint32_t>(ff), lane.load[ff]});
    ff_active |= d;
  }

  std::uint64_t live_mask = used;
  std::size_t last = wlen;  // the last frame simulated (wlen: none yet)
  for (std::size_t k = 0; k < wlen && live_mask; ++k) {
    ++lane.stats.group_vectors;
    const std::vector<PackedV3>& frame = sw.frames[k];

    // Per-frame override activity: a transition slot forces only when its
    // launch line held the initial value in the previous frame (act), and
    // its flip-flop latch forcing only when it holds it in this frame
    // (act_next — the latch lands in the next frame).  Stuck-at slots stay
    // unconditionally active.
    std::uint64_t act = ~0ULL;
    std::uint64_t act_next = ~0ULL;
    if (group_trans) {
      for (std::size_t s = 0; s < count; ++s) {
        const Site& site = lane.sites[s];
        if (!site.transition) continue;
        if (lane.lprev[s] != site.stuck) act &= ~(1ULL << s);
        const V3 nl = frame[site.line].get(0);
        if (nl != site.stuck) act_next &= ~(1ULL << s);
        lane.lprev[s] = nl;
      }
    }

    // Excitation/activity screen: a slot can differ from the good machine
    // this vector only if its fault site is excited by the good values or
    // its state carries parked fault effects.
    std::uint64_t active = ff_active;
    for (std::size_t s = 0; s < count; ++s) {
      const Site& site = lane.sites[s];
      bool ex = frame[site.line].get(0) != site.stuck;
      if (!ex && site.extra != netlist::kNoNode) {
        ex = frame[site.extra].get(0) != site.stuck;
      }
      active |= static_cast<std::uint64_t>(ex) << s;
    }
    // Provable no-op otherwise: every live slot equals the good machine
    // everywhere (so the faulty state is empty), the frame cannot detect,
    // and the state just tracks the good next state.
    if (!(active & live_mask)) {
      ++lane.stats.group_vectors_skipped;
      continue;
    }

    if (group_trans) {
      machine.set_override_activity(act);
      machine.set_latch_override_activity(act_next);
    }
    // The first simulated frame seeds the whole good frame; later ones reset
    // what moved since the last simulated frame, skipped frames included.
    std::span<const NodeId> moved;
    if (last == wlen) {
      machine.begin_differential(frame);
    } else {
      moved = std::span<const NodeId>(sw.changed)
                  .subspan(sw.changed_at[last + 1],
                           sw.changed_at[k + 1] - sw.changed_at[last + 1]);
    }
    machine.apply_differential(frame, moved, lane.state);
    last = k;

    std::uint64_t hit = 0;
    for (const auto& [p, gv] : sw.po[k]) {
      const PackedV3 w = machine.value(p);
      hit |= gv == V3::k1 ? w.v0 : w.v1;
    }
    hit &= live_mask;
    const bool retired = hit != 0;
    while (hit) {
      const unsigned s = static_cast<unsigned>(__builtin_ctzll(hit));
      hit &= hit - 1;
      live_mask &= ~(1ULL << s);
      sw.group_dets[g].push_back({static_cast<std::uint32_t>(slots[s]),
                                  static_cast<std::uint32_t>(t0 + k)});
    }
    // Retire freshly detected slots on the spot: drop their fault injection
    // and snap their state onto the good machine below, so they stop
    // generating differential events immediately instead of at the next
    // repack boundary.
    if (retired) machine.retain_override_slots(live_mask);

    // Next state: the good one, patched at the flip-flops the frame
    // disturbed.  Live slots latch their faulty next state; dead and unused
    // slots track the good machine (zero-event ghosts).
    lane.next.clear();
    ff_active = 0;
    for (const std::uint32_t ff : machine.touched_flip_flops()) {
      const PackedV3 good_next = frame[d_line_[ff]];
      const PackedV3 v =
          blend(machine.next_state_packed(ff), good_next, live_mask);
      const std::uint64_t d = differing_slots(v, good_next);
      if (!d) continue;
      lane.next.push_back({ff, v});
      ff_active |= d;
    }
    std::swap(lane.state, lane.next);
  }

  // Write back survivors' states, one fault row at a time: the good state
  // after the window, patched with the group's faulty state.  Detected
  // slots are marked dead (and keep their persisted state).
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t p = slots[s];
    if (!(live_mask >> s & 1)) {
      sw.live[p] = 0;
      continue;
    }
    V3* row = persist ? (*persist)[fault_indices[p]].data()
                      : sw.rows.data() + p * nff;
    std::copy_n(sw.good_final.data(), nff, row);
    for (const sim::FfPatch& e : lane.state) {
      row[e.ff] = slot_value(e.value, static_cast<unsigned>(s));
    }
  }
}

std::vector<std::size_t> FaultSimulator::run(const Sequence& seq) {
  std::vector<std::size_t> newly;
  if (seq.empty()) return newly;

  Sweep& sw = sweep_;
  sw.pending.clear();
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (!detected_[i]) sw.pending.push_back(i);
  }
  // Survivors' states land in faulty_state_; faults detected during this run
  // keep their pre-run state.
  simulate_differential(good_, sw.pending, seq, &faulty_state_, good_sink_);

  // Report detections in plain group-sweep order regardless of windowing and
  // repacking: group-of-origin (pending position / 64) first, then detection
  // time, then slot.
  std::sort(sw.dets.begin(), sw.dets.end(),
            [](const Detection& a, const Detection& b) {
              if ((a.pos >> 6) != (b.pos >> 6)) {
                return (a.pos >> 6) < (b.pos >> 6);
              }
              if (a.t != b.t) return a.t < b.t;
              return a.pos < b.pos;
            });
  for (const Detection& d : sw.dets) {
    const std::size_t fi = sw.pending[d.pos];
    detected_[fi] = 1;
    ++num_detected_;
    newly.push_back(fi);
  }
  // Launch anchors are good-machine values, so they advance for every fault
  // uniformly.
  if (any_transition_) {
    for (std::size_t i = 0; i < sw.pending.size(); ++i) {
      launch_prev_[sw.pending[i]] = sw.launch[i];
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
  // The sweep starts from the session's states and launch anchors (as run()
  // would) and leaves its own in sweep_, so the session is not mutated.
  simulate_differential(good, fault_indices, seq, nullptr, nullptr);

  const Sweep& sw = sweep_;
  result.detected = static_cast<unsigned>(sw.dets.size());
  // Fault effects parked in the state at sequence end (undetected slots
  // whose faulty flip-flop value is defined and differs from the good
  // machine's defined value).
  const std::size_t nff = sw.good_final.size();
  for (std::size_t i = 0; i < fault_indices.size(); ++i) {
    if (!sw.live[i]) continue;
    const V3* row = sw.rows.data() + i * nff;
    for (std::size_t ff = 0; ff < nff; ++ff) {
      const V3 g = sw.good_final[ff];
      if (g != V3::kX && row[ff] != V3::kX && g != row[ff]) {
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
