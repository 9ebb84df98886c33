#include "sim/seqsim.h"

#include <algorithm>
#include <stdexcept>

namespace gatpg::sim {

using netlist::GateType;
using netlist::NodeId;

SequenceSimulator::SequenceSimulator(const netlist::Circuit& c)
    : circuit_(c),
      values_(c.node_count()),
      queue_(c),
      next_state_(c.flip_flops().size()),
      node_has_out_over_(c.node_count(), 0),
      node_has_in_over_(c.node_count(), 0) {
  std::size_t max_fanin = 1;
  for (NodeId n = 0; n < c.node_count(); ++n) {
    max_fanin = std::max(max_fanin, c.fanin_count(n));
  }
  eval_ins_.resize(max_fanin);
  eval_idx_.resize(max_fanin);
  for (std::size_t i = 0; i < max_fanin; ++i) {
    eval_idx_[i] = static_cast<NodeId>(i);
  }
  reset();
}

void SequenceSimulator::reset() {
  for (auto& v : values_) v = PackedV3::all_x();
  for (NodeId n = 0; n < circuit_.node_count(); ++n) {
    if (circuit_.type(n) == GateType::kConst0) {
      values_[n] = PackedV3::broadcast(V3::k0);
    } else if (circuit_.type(n) == GateType::kConst1) {
      values_[n] = PackedV3::broadcast(V3::k1);
    }
  }
  force_source_overrides();
  first_vector_ = true;
}

void SequenceSimulator::set_state(const State3& state) {
  const auto ffs = circuit_.flip_flops();
  if (state.size() != ffs.size()) {
    throw std::invalid_argument("set_state: state arity mismatch");
  }
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    values_[ffs[i]] = PackedV3::broadcast(state[i]);
  }
  force_source_overrides();
  first_vector_ = true;
}

void SequenceSimulator::set_ff_packed(std::size_t ff_index, PackedV3 value) {
  values_[circuit_.flip_flops()[ff_index]] = value;
  force_source_overrides();
  first_vector_ = true;
}

void SequenceSimulator::add_output_override(NodeId n, bool stuck,
                                            std::uint64_t slot_mask) {
  Masks& m = out_over_[n];
  if (stuck) {
    m.one |= slot_mask;
    m.zero &= ~slot_mask;
  } else {
    m.zero |= slot_mask;
    m.one &= ~slot_mask;
  }
  node_has_out_over_[n] = 1;
  note_override_ff(n);
  if (!netlist::is_combinational(circuit_.type(n))) {
    overridden_sources_.push_back(n);
    force_source_overrides();
  }
  mark_dirty();
}

void SequenceSimulator::add_input_override(NodeId n, unsigned pin, bool stuck,
                                           std::uint64_t slot_mask) {
  Masks& m = in_over_[in_key(n, pin)];
  if (stuck) {
    m.one |= slot_mask;
    m.zero &= ~slot_mask;
  } else {
    m.zero |= slot_mask;
    m.one &= ~slot_mask;
  }
  node_has_in_over_[n] = 1;
  note_override_ff(n);
  mark_dirty();
}

void SequenceSimulator::note_override_ff(NodeId n) {
  const int ff = circuit_.ff_index(n);
  if (ff >= 0) override_ffs_.push_back(static_cast<std::uint32_t>(ff));
}

void SequenceSimulator::clear_overrides() {
  out_over_.clear();
  in_over_.clear();
  std::fill(node_has_out_over_.begin(), node_has_out_over_.end(), 0);
  std::fill(node_has_in_over_.begin(), node_has_in_over_.end(), 0);
  overridden_sources_.clear();
  override_ffs_.clear();
  act_ = ~0ULL;
  act_latch_ = ~0ULL;
  mark_dirty();
}

void SequenceSimulator::retain_override_slots(std::uint64_t slot_mask) {
  for (auto& [n, m] : out_over_) {
    m.one &= slot_mask;
    m.zero &= slot_mask;
  }
  for (auto& [key, m] : in_over_) {
    m.one &= slot_mask;
    m.zero &= slot_mask;
  }
}

void SequenceSimulator::mark_dirty() { first_vector_ = true; }

void SequenceSimulator::force_source_overrides() {
  for (NodeId n : overridden_sources_) {
    values_[n] = apply_masks(values_[n], out_over_[n], act_);
  }
}

PackedV3 SequenceSimulator::gate_value(NodeId n) {
  // Branchless gate dispatch: one indexed call per evaluation instead of a
  // switch inside the slot loop (see kPackedGateTable in sim/logic3.h).
  const PackedGateFn fn = packed_gate_fn(circuit_.type(n));
  const auto fanins = circuit_.fanins(n);
  PackedV3 next;
  if (node_has_in_over_[n]) {
    // Slow path: this gate carries injected input-pin faults; fetch fanin
    // values with the per-pin masks applied into the preallocated scratch
    // (sized once at construction — never reallocates).
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      PackedV3 v = values_[fanins[i]];
      auto it = in_over_.find(in_key(n, static_cast<unsigned>(i)));
      if (it != in_over_.end()) v = apply_masks(v, it->second, act_);
      eval_ins_[i] = v;
    }
    next = fn(eval_ins_.data(), eval_idx_.data(), fanins.size());
  } else {
    next = fn(values_.data(), fanins.data(), fanins.size());
  }
  if (node_has_out_over_[n]) {
    next = apply_masks(next, out_over_.find(n)->second, act_);
  }
  return next;
}

bool SequenceSimulator::evaluate(NodeId n) {
  ++gate_evals_;
  const PackedV3 next = gate_value(n);
  if (next == values_[n]) return false;
  values_[n] = next;
  return true;
}

void SequenceSimulator::apply_packed(const std::vector<PackedV3>& pi_values) {
  const auto pis = circuit_.primary_inputs();
  if (pi_values.size() != pis.size()) {
    throw std::invalid_argument("apply_packed: PI arity mismatch");
  }
  if (first_vector_) {
    // Full evaluation establishes a consistent baseline; afterwards only
    // events are traced.
    sweep_packed(pi_values);
    return;
  }
  for (std::size_t i = 0; i < pis.size(); ++i) {
    PackedV3 v = pi_values[i];
    if (node_has_out_over_[pis[i]]) {
      v = apply_masks(v, out_over_.find(pis[i])->second, act_);
    }
    if (values_[pis[i]] == v) continue;
    values_[pis[i]] = v;
    queue_.schedule_fanouts(pis[i]);
  }
  queue_.drain([this](NodeId n) { return evaluate(n); });
}

void SequenceSimulator::sweep_packed(std::span<const PackedV3> pi_values,
                                     std::span<const NodeId> gates) {
  const auto pis = circuit_.primary_inputs();
  if (pi_values.size() != pis.size()) {
    throw std::invalid_argument("sweep_packed: PI arity mismatch");
  }
  for (std::size_t i = 0; i < pis.size(); ++i) values_[pis[i]] = pi_values[i];
  force_source_overrides();
  for (NodeId g : gates) values_[g] = gate_value(g);
  gate_evals_ += gates.size();
  // Only a whole sweep leaves no stale gate behind to trace events from.
  first_vector_ = gates.size() != circuit_.gate_count();
}

void SequenceSimulator::apply_vector(const Vector3& v) {
  pi_scratch_.resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    pi_scratch_[i] = PackedV3::broadcast(v[i]);
  }
  apply_packed(pi_scratch_);
}

void SequenceSimulator::compute_next_state() {
  for (std::size_t i = 0; i < next_state_.size(); ++i) {
    next_state_[i] = next_state_packed(i);
  }
}

void SequenceSimulator::clock() {
  const auto ffs = circuit_.flip_flops();
  compute_next_state();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (values_[ffs[i]] == next_state_[i]) continue;
    values_[ffs[i]] = next_state_[i];
    queue_.schedule_fanouts(ffs[i]);
  }
  // Settle the combinational logic so post-clock reads are consistent with
  // the new state (costs nothing when the next apply would drain anyway).
  queue_.drain([this](NodeId n) { return evaluate(n); });
}

void SequenceSimulator::latch(std::span<const std::uint32_t> ff_indices) {
  const auto ffs = circuit_.flip_flops();
  for (const std::uint32_t i : ff_indices) {
    next_state_[i] = next_state_packed(i);
  }
  for (const std::uint32_t i : ff_indices) values_[ffs[i]] = next_state_[i];
  first_vector_ = true;
}

void SequenceSimulator::begin_differential(
    const std::vector<PackedV3>& good_values) {
  if (good_values.size() != values_.size()) {
    throw std::invalid_argument("begin_differential: node arity mismatch");
  }
  values_ = good_values;
  written_.clear();
  ff_mark_.resize(circuit_.flip_flops().size());
}

void SequenceSimulator::apply_differential(
    const std::vector<PackedV3>& good_values,
    std::span<const NodeId> good_changed, std::span<const FfPatch> ff_state) {
  if (good_values.size() != values_.size()) {
    throw std::invalid_argument("apply_differential: node arity mismatch");
  }
  // Reseed: only the nodes the last frame wrote and those whose good value
  // moved can differ from this frame's good values.
  for (const NodeId n : written_) values_[n] = good_values[n];
  for (const NodeId n : good_changed) values_[n] = good_values[n];
  written_.clear();
  auto write = [this](NodeId n, PackedV3 v) {
    values_[n] = v;
    written_.push_back(n);
    queue_.schedule_fanouts(n);
  };

  // Overlay the faulty flip-flop state; differing flip-flops disturb their
  // fanout cones.
  const auto ffs = circuit_.flip_flops();
  for (const FfPatch& p : ff_state) {
    if (values_[ffs[p.ff]] != p.value) write(ffs[p.ff], p.value);
  }

  // Re-force stuck sources (PI/flip-flop/constant output faults); a forced
  // value differing from the good baseline is a difference to propagate.
  for (NodeId n : overridden_sources_) {
    const PackedV3 forced = apply_masks(values_[n], out_over_[n], act_);
    if (forced != values_[n]) write(n, forced);
  }

  // Wake the combinational fault sites whose forced value actually differs
  // from the good baseline this frame (a word compare per site — much
  // cheaper than unconditionally re-evaluating every site's gate).
  for (const auto& [n, masks] : out_over_) {
    if (!netlist::is_combinational(circuit_.type(n))) continue;
    if (apply_masks(values_[n], masks, act_) == values_[n]) continue;
    queue_.schedule(n);
  }
  for (const auto& [key, masks] : in_over_) {
    const NodeId n = static_cast<NodeId>(key >> 16);
    const PackedV3 v =
        values_[circuit_.fanins(n)[static_cast<std::size_t>(key & 0xFFFF)]];
    if (apply_masks(v, masks, act_) == v) continue;
    queue_.schedule(n);
  }

  queue_.drain([this](NodeId n) {
    if (!evaluate(n)) return false;
    written_.push_back(n);
    return true;
  });
  first_vector_ = false;

  // The flip-flops whose next state this frame may have disturbed.
  touched_ffs_.clear();
  auto touch = [this](std::uint32_t ff) {
    if (ff_mark_[ff]) return;
    ff_mark_[ff] = 1;
    touched_ffs_.push_back(ff);
  };
  for (const std::uint32_t ff : override_ffs_) touch(ff);
  for (const NodeId n : written_) {
    for (const NodeId out : circuit_.fanouts(n)) {
      const int ff = circuit_.ff_index(out);
      if (ff >= 0) touch(static_cast<std::uint32_t>(ff));
    }
  }
  for (const std::uint32_t ff : touched_ffs_) ff_mark_[ff] = 0;
}

PackedV3 SequenceSimulator::next_state_packed(std::size_t ff_index) const {
  const NodeId ff = circuit_.flip_flops()[ff_index];
  PackedV3 d = values_[circuit_.fanins(ff)[0]];
  // The D-pin forcing is sampled at the edge ending the current frame
  // (current-frame activity); the Q forcing lives in the frame the latch
  // feeds (latch activity, advanced one frame ahead by the caller).
  if (node_has_in_over_[ff]) {
    auto it = in_over_.find(in_key(ff, 0));
    if (it != in_over_.end()) d = apply_masks(d, it->second, act_);
  }
  if (node_has_out_over_[ff]) {
    d = apply_masks(d, out_over_.find(ff)->second, act_latch_);
  }
  return d;
}

void SequenceSimulator::run_sequence(const Sequence& seq) {
  for (const auto& v : seq) {
    apply_vector(v);
    clock();
  }
}

State3 SequenceSimulator::state(unsigned slot) const {
  const auto ffs = circuit_.flip_flops();
  State3 s(ffs.size());
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    s[i] = values_[ffs[i]].get(slot);
  }
  return s;
}

std::uint64_t SequenceSimulator::state_match_mask(const State3& desired) const {
  const auto ffs = circuit_.flip_flops();
  std::uint64_t mask = ~0ULL;
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (desired[i] == V3::kX) continue;
    const PackedV3 v = values_[ffs[i]];
    mask &= desired[i] == V3::k1 ? v.v1 : v.v0;
    if (mask == 0) break;
  }
  return mask;
}

bool cube_subsumes(const State3& weaker, const State3& stronger) {
  for (std::size_t i = 0; i < weaker.size(); ++i) {
    if (weaker[i] != V3::kX && (i >= stronger.size() || stronger[i] != weaker[i])) {
      return false;
    }
  }
  return true;
}

unsigned cube_agreement(const State3& cube, const State3& state) {
  unsigned count = 0;
  const std::size_t n = std::min(cube.size(), state.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (cube[i] != V3::kX && cube[i] == state[i]) ++count;
  }
  return count;
}

bool cube_is_trivial(const State3& cube) {
  for (const V3 v : cube) {
    if (v != V3::kX) return false;
  }
  return true;
}

}  // namespace gatpg::sim
