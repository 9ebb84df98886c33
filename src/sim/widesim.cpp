#include "sim/widesim.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gatpg::sim {

using netlist::GateType;
using netlist::NodeId;

WideSimulator::WideSimulator(const netlist::Circuit& c, unsigned words)
    : circuit_(c),
      kernels_(&wide_kernels()),
      nw_(words),
      row_(c.node_count()),
      queued_(c.node_count(), 0),
      node_has_in_over_(c.node_count(), 0) {
  if (words < 1 || words > kMaxWideWords) {
    throw std::invalid_argument("WideSimulator: width must be 1..8 words");
  }
  act_ = WideMask::ones(nw_, static_cast<std::size_t>(nw_) * 64);
  act_latch_ = act_;

  // Levelized topo layout: rows ordered by (level, NodeId) — sources and
  // flip-flops (level 0) first, then gates by ascending logic level, so the
  // full-evaluation pass and the level-ordered drain walk the planes
  // forward.  Counting sort keeps the layout deterministic.
  const std::size_t n_nodes = c.node_count();
  const std::size_t n_levels = static_cast<std::size_t>(c.max_level()) + 1;
  std::vector<std::uint32_t> level_count(n_levels + 1, 0);
  for (NodeId n = 0; n < n_nodes; ++n) ++level_count[c.level(n)];
  std::vector<std::uint32_t> level_pos(n_levels + 1, 0);
  for (std::size_t l = 1; l <= n_levels; ++l) {
    level_pos[l] = level_pos[l - 1] + level_count[l - 1];
  }
  for (NodeId n = 0; n < n_nodes; ++n) {
    row_[n] = level_pos[c.level(n)]++ * nw_;
  }
  plane1_.assign(n_nodes * nw_, 0);
  plane0_.assign(n_nodes * nw_, 0);

  // Bump-allocated level queue: per-level capacity = combinational node
  // count at that level (each node is queued at most once per drain).
  std::vector<std::uint32_t> comb_count(n_levels + 1, 0);
  std::size_t n_comb = 0;
  std::size_t max_fanin = 1;
  for (NodeId n = 0; n < n_nodes; ++n) {
    max_fanin = std::max(max_fanin, c.fanin_count(n));
    if (netlist::is_combinational(c.type(n))) {
      ++comb_count[c.level(n)];
      ++n_comb;
    }
  }
  qoff_.assign(n_levels + 1, 0);
  for (std::size_t l = 1; l <= n_levels; ++l) {
    qoff_[l] = qoff_[l - 1] + comb_count[l - 1];
  }
  qfill_.assign(n_levels + 1, 0);
  qbuf_.resize(n_comb);

  fin1_.resize(max_fanin);
  fin0_.resize(max_fanin);
  ovr1_.resize(max_fanin * nw_);
  ovr0_.resize(max_fanin * nw_);
  out1_.resize(nw_);
  out0_.resize(nw_);
  ff_next_.resize(c.flip_flops().size() * nw_ * 2);

  reset();
}

void WideSimulator::broadcast_into(NodeId n, V3 v) {
  std::uint64_t* r1 = plane1_.data() + row_[n];
  std::uint64_t* r0 = plane0_.data() + row_[n];
  const std::uint64_t w1 = v == V3::k1 ? ~0ULL : 0;
  const std::uint64_t w0 = v == V3::k0 ? ~0ULL : 0;
  for (unsigned w = 0; w < nw_; ++w) {
    r1[w] = w1;
    r0[w] = w0;
  }
}

void WideSimulator::reset() {
  std::fill(plane1_.begin(), plane1_.end(), 0);
  std::fill(plane0_.begin(), plane0_.end(), 0);
  for (NodeId n = 0; n < circuit_.node_count(); ++n) {
    if (circuit_.type(n) == GateType::kConst0) {
      broadcast_into(n, V3::k0);
    } else if (circuit_.type(n) == GateType::kConst1) {
      broadcast_into(n, V3::k1);
    }
  }
  force_source_overrides();
  first_vector_ = true;
}

void WideSimulator::set_ff_rows(std::size_t ff_index, const std::uint64_t* r1,
                                const std::uint64_t* r0) {
  const NodeId ff = circuit_.flip_flops()[ff_index];
  std::copy(r1, r1 + nw_, plane1_.data() + row_[ff]);
  std::copy(r0, r0 + nw_, plane0_.data() + row_[ff]);
  force_source_overrides();
  first_vector_ = true;
}

void WideSimulator::add_output_override(NodeId n, bool stuck,
                                        const WideMask& slot_mask) {
  WMasks& m = out_over_[n];
  if (stuck) {
    m.one |= slot_mask;
    m.zero.remove(slot_mask);
  } else {
    m.zero |= slot_mask;
    m.one.remove(slot_mask);
  }
  if (!netlist::is_combinational(circuit_.type(n))) {
    overridden_sources_.push_back(n);
    force_source_overrides();
  }
  mark_dirty();
}

void WideSimulator::add_input_override(NodeId n, unsigned pin, bool stuck,
                                       const WideMask& slot_mask) {
  WMasks& m = in_over_[in_key(n, pin)];
  if (stuck) {
    m.one |= slot_mask;
    m.zero.remove(slot_mask);
  } else {
    m.zero |= slot_mask;
    m.one.remove(slot_mask);
  }
  node_has_in_over_[n] = 1;
  mark_dirty();
}

void WideSimulator::clear_overrides() {
  out_over_.clear();
  in_over_.clear();
  std::fill(node_has_in_over_.begin(), node_has_in_over_.end(), 0);
  overridden_sources_.clear();
  act_ = WideMask::ones(nw_, static_cast<std::size_t>(nw_) * 64);
  act_latch_ = act_;
  mark_dirty();
}

void WideSimulator::set_override_activity(const WideMask& act) {
  if (act.w == act_.w) return;
  act_ = act;
  mark_dirty();
}

void WideSimulator::set_latch_override_activity(const WideMask& act) {
  if (act.w == act_latch_.w) return;
  act_latch_ = act;
  mark_dirty();
}

void WideSimulator::retain_override_slots(const WideMask& slot_mask) {
  for (auto& [n, m] : out_over_) {
    m.one &= slot_mask;
    m.zero &= slot_mask;
  }
  for (auto& [key, m] : in_over_) {
    m.one &= slot_mask;
    m.zero &= slot_mask;
  }
}

void WideSimulator::apply_masks_rows(std::uint64_t* r1, std::uint64_t* r0,
                                     const WMasks& m,
                                     const WideMask& act) const {
  for (unsigned w = 0; w < nw_; ++w) {
    const std::uint64_t one = m.one.w[w] & act.w[w];
    const std::uint64_t zero = m.zero.w[w] & act.w[w];
    const std::uint64_t touched = one | zero;
    r1[w] = (r1[w] & ~touched) | one;
    r0[w] = (r0[w] & ~touched) | zero;
  }
}

bool WideSimulator::rows_equal_masked(const std::uint64_t* r1,
                                      const std::uint64_t* r0, const WMasks& m,
                                      const WideMask& act) const {
  // True when applying `m` to (r1, r0) would change nothing.
  std::uint64_t diff = 0;
  for (unsigned w = 0; w < nw_; ++w) {
    const std::uint64_t one = m.one.w[w] & act.w[w];
    const std::uint64_t zero = m.zero.w[w] & act.w[w];
    const std::uint64_t touched = one | zero;
    diff |= ((r1[w] & ~touched) | one) ^ r1[w];
    diff |= ((r0[w] & ~touched) | zero) ^ r0[w];
  }
  return diff == 0;
}

void WideSimulator::force_source_overrides() {
  for (NodeId n : overridden_sources_) {
    apply_masks_rows(plane1_.data() + row_[n], plane0_.data() + row_[n],
                     out_over_[n], act_);
  }
}

void WideSimulator::schedule(NodeId n) {
  if (queued_[n] || !netlist::is_combinational(circuit_.type(n))) return;
  queued_[n] = 1;
  const std::uint32_t lvl = circuit_.level(n);
  qbuf_[qoff_[lvl] + qfill_[lvl]++] = n;
}

void WideSimulator::schedule_fanouts(NodeId n) {
  for (NodeId out : circuit_.fanouts(n)) schedule(out);
}

void WideSimulator::drain() {
  // Same-level insertions are impossible (fanouts are strictly deeper), but
  // deeper buckets grow while draining this one.
  for (std::size_t lvl = 0; lvl < qfill_.size(); ++lvl) {
    const std::uint32_t base = qoff_[lvl];
    for (std::uint32_t i = 0; i < qfill_[lvl]; ++i) {
      const NodeId n = qbuf_[base + i];
      queued_[n] = 0;
      if (evaluate(n)) schedule_fanouts(n);
    }
    qfill_[lvl] = 0;
  }
}

bool WideSimulator::evaluate(NodeId n) {
  ++gate_evals_;
  const auto fanins = circuit_.fanins(n);
  const std::size_t nf = fanins.size();
  if (node_has_in_over_[n]) {
    // Slow path: this gate carries injected input-pin faults; gather fanin
    // rows with the per-pin masks applied into the preallocated scratch.
    for (std::size_t i = 0; i < nf; ++i) {
      std::uint64_t* s1 = ovr1_.data() + i * nw_;
      std::uint64_t* s0 = ovr0_.data() + i * nw_;
      std::copy_n(plane1_.data() + row_[fanins[i]], nw_, s1);
      std::copy_n(plane0_.data() + row_[fanins[i]], nw_, s0);
      auto it = in_over_.find(in_key(n, static_cast<unsigned>(i)));
      if (it != in_over_.end()) apply_masks_rows(s1, s0, it->second, act_);
      fin1_[i] = s1;
      fin0_[i] = s0;
    }
  } else {
    for (std::size_t i = 0; i < nf; ++i) {
      fin1_[i] = plane1_.data() + row_[fanins[i]];
      fin0_[i] = plane0_.data() + row_[fanins[i]];
    }
  }
  kernels_->eval[static_cast<std::size_t>(circuit_.type(n))](
      fin1_.data(), fin0_.data(), out1_.data(), out0_.data(), nf, nw_);
  if (!out_over_.empty()) {
    auto it = out_over_.find(n);
    if (it != out_over_.end()) {
      apply_masks_rows(out1_.data(), out0_.data(), it->second, act_);
    }
  }
  std::uint64_t* r1 = plane1_.data() + row_[n];
  std::uint64_t* r0 = plane0_.data() + row_[n];
  std::uint64_t diff = 0;
  for (unsigned w = 0; w < nw_; ++w) {
    diff |= (r1[w] ^ out1_[w]) | (r0[w] ^ out0_[w]);
  }
  if (diff == 0) return false;
  std::copy_n(out1_.data(), nw_, r1);
  std::copy_n(out0_.data(), nw_, r0);
  return true;
}

void WideSimulator::full_evaluate() {
  for (NodeId g : circuit_.topo_order()) evaluate(g);
}

void WideSimulator::apply_wide(std::span<const std::uint64_t> pi1,
                               std::span<const std::uint64_t> pi0) {
  const auto pis = circuit_.primary_inputs();
  if (pi1.size() != pis.size() * nw_ || pi0.size() != pis.size() * nw_) {
    throw std::invalid_argument("apply_wide: PI arity mismatch");
  }
  if (first_vector_) {
    for (std::size_t i = 0; i < pis.size(); ++i) {
      std::copy_n(pi1.data() + i * nw_, nw_, plane1_.data() + row_[pis[i]]);
      std::copy_n(pi0.data() + i * nw_, nw_, plane0_.data() + row_[pis[i]]);
    }
    force_source_overrides();
    full_evaluate();
    first_vector_ = false;
    return;
  }
  for (std::size_t i = 0; i < pis.size(); ++i) {
    std::copy_n(pi1.data() + i * nw_, nw_, out1_.data());
    std::copy_n(pi0.data() + i * nw_, nw_, out0_.data());
    auto it = out_over_.find(pis[i]);
    if (it != out_over_.end()) {
      apply_masks_rows(out1_.data(), out0_.data(), it->second, act_);
    }
    std::uint64_t* r1 = plane1_.data() + row_[pis[i]];
    std::uint64_t* r0 = plane0_.data() + row_[pis[i]];
    std::uint64_t diff = 0;
    for (unsigned w = 0; w < nw_; ++w) {
      diff |= (r1[w] ^ out1_[w]) | (r0[w] ^ out0_[w]);
    }
    if (diff == 0) continue;
    std::copy_n(out1_.data(), nw_, r1);
    std::copy_n(out0_.data(), nw_, r0);
    schedule_fanouts(pis[i]);
  }
  drain();
}

void WideSimulator::apply_vector(const Vector3& v) {
  std::vector<std::uint64_t> pi1(v.size() * nw_), pi0(v.size() * nw_);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::uint64_t w1 = v[i] == V3::k1 ? ~0ULL : 0;
    const std::uint64_t w0 = v[i] == V3::k0 ? ~0ULL : 0;
    for (unsigned w = 0; w < nw_; ++w) {
      pi1[i * nw_ + w] = w1;
      pi0[i * nw_ + w] = w0;
    }
  }
  apply_wide(pi1, pi0);
}

void WideSimulator::clock() {
  const auto ffs = circuit_.flip_flops();
  std::uint64_t* next1 = ff_next_.data();
  std::uint64_t* next0 = ff_next_.data() + ffs.size() * nw_;
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    next_state_rows(i, next1 + i * nw_, next0 + i * nw_);
  }
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    std::uint64_t* r1 = plane1_.data() + row_[ffs[i]];
    std::uint64_t* r0 = plane0_.data() + row_[ffs[i]];
    std::uint64_t diff = 0;
    for (unsigned w = 0; w < nw_; ++w) {
      diff |= (r1[w] ^ next1[i * nw_ + w]) | (r0[w] ^ next0[i * nw_ + w]);
    }
    if (diff == 0) continue;
    std::copy_n(next1 + i * nw_, nw_, r1);
    std::copy_n(next0 + i * nw_, nw_, r0);
    schedule_fanouts(ffs[i]);
  }
  // Settle the combinational logic so post-clock reads are consistent with
  // the new state (costs nothing when the next apply would drain anyway).
  drain();
}

void WideSimulator::next_state_rows(std::size_t ff_index, std::uint64_t* o1,
                                    std::uint64_t* o0) const {
  const NodeId ff = circuit_.flip_flops()[ff_index];
  const NodeId d = circuit_.fanins(ff)[0];
  std::copy_n(plane1_.data() + row_[d], nw_, o1);
  std::copy_n(plane0_.data() + row_[d], nw_, o0);
  // D-pin forcing samples at the edge ending the current frame
  // (current-frame activity); Q forcing lives in the frame the latch feeds
  // (latch activity, advanced one frame ahead by the caller).
  if (node_has_in_over_[ff]) {
    auto it = in_over_.find(in_key(ff, 0));
    if (it != in_over_.end()) apply_masks_rows(o1, o0, it->second, act_);
  }
  auto out = out_over_.find(ff);
  if (out != out_over_.end()) apply_masks_rows(o1, o0, out->second, act_latch_);
}

void WideSimulator::apply_differential(
    const std::vector<PackedV3>& good_values,
    std::span<const std::uint64_t> ff1, std::span<const std::uint64_t> ff0) {
  if (good_values.size() != circuit_.node_count()) {
    throw std::invalid_argument("apply_differential: node arity mismatch");
  }
  // Seed every node from the good machine's slot-uniform frame.  Uniformity
  // (every slot of a PackedV3 carries the same value) holds because the
  // good machine only ever sees broadcast vectors and carries no overrides;
  // it makes each plane word 0 or ~0, so replication is an exact broadcast.
  for (NodeId n = 0; n < circuit_.node_count(); ++n) {
    const PackedV3 v = good_values[n];
    assert((v.v1 == 0 || v.v1 == ~0ULL) && (v.v0 == 0 || v.v0 == ~0ULL));
    std::uint64_t* r1 = plane1_.data() + row_[n];
    std::uint64_t* r0 = plane0_.data() + row_[n];
    for (unsigned w = 0; w < nw_; ++w) {
      r1[w] = v.v1;
      r0[w] = v.v0;
    }
  }

  // Overlay the faulty flip-flop state; differing flip-flops disturb their
  // fanout cones.
  const auto ffs = circuit_.flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    std::uint64_t* r1 = plane1_.data() + row_[ffs[i]];
    std::uint64_t* r0 = plane0_.data() + row_[ffs[i]];
    const std::uint64_t* s1 = ff1.data() + i * nw_;
    const std::uint64_t* s0 = ff0.data() + i * nw_;
    std::uint64_t diff = 0;
    for (unsigned w = 0; w < nw_; ++w) {
      diff |= (r1[w] ^ s1[w]) | (r0[w] ^ s0[w]);
    }
    if (diff == 0) continue;
    std::copy_n(s1, nw_, r1);
    std::copy_n(s0, nw_, r0);
    schedule_fanouts(ffs[i]);
  }

  // Re-force stuck sources (PI/flip-flop/constant output faults); a forced
  // value differing from the good baseline is a difference to propagate.
  for (NodeId n : overridden_sources_) {
    const WMasks& m = out_over_[n];
    std::uint64_t* r1 = plane1_.data() + row_[n];
    std::uint64_t* r0 = plane0_.data() + row_[n];
    if (rows_equal_masked(r1, r0, m, act_)) continue;
    apply_masks_rows(r1, r0, m, act_);
    schedule_fanouts(n);
  }

  // Wake the combinational fault sites whose forced value actually differs
  // from the good baseline this frame.
  for (const auto& [n, masks] : out_over_) {
    if (!netlist::is_combinational(circuit_.type(n))) continue;
    if (rows_equal_masked(plane1_.data() + row_[n], plane0_.data() + row_[n],
                          masks, act_)) {
      continue;
    }
    schedule(n);
  }
  for (const auto& [key, masks] : in_over_) {
    const NodeId n = static_cast<NodeId>(key >> 16);
    const NodeId src =
        circuit_.fanins(n)[static_cast<std::size_t>(key & 0xFFFF)];
    if (rows_equal_masked(plane1_.data() + row_[src],
                          plane0_.data() + row_[src], masks, act_)) {
      continue;
    }
    schedule(n);
  }

  drain();
  first_vector_ = false;
}

State3 WideSimulator::state(unsigned slot) const {
  const auto ffs = circuit_.flip_flops();
  State3 s(ffs.size());
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    s[i] = get(ffs[i], slot);
  }
  return s;
}

}  // namespace gatpg::sim
