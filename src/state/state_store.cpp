#include "state/state_store.h"

#include <algorithm>
#include <unordered_map>

#include "fault/inject.h"
#include "serialize/archive.h"

namespace gatpg::state {

using sim::Sequence;
using sim::State3;

StateStore::StateStore(const netlist::Circuit& c, StateStoreConfig config)
    : c_(c), config_(config) {}

std::unique_ptr<StateStore> StateStore::clone() const {
  auto copy = std::make_unique<StateStore>(c_, config_);
  copy->stats_ = stats_;
  copy->next_stamp_ = next_stamp_;
  copy->revision_ = revision_;
  copy->justified_ = justified_;
  copy->unjustifiable_ = unjustifiable_;
  // TraceEntry sequences are shared_ptr<const Sequence>: immutable, so
  // sharing them across the clone is safe and keeps the copy cheap.
  copy->reachable_ = reachable_;
  copy->near_misses_ = near_misses_;
  copy->forward_ = forward_;
  copy->forward_valid_ = forward_valid_;
  return copy;
}

void StateStore::adopt_content(const StateStore& other) {
  justified_ = other.justified_;
  unjustifiable_ = other.unjustifiable_;
  reachable_ = other.reachable_;
  near_misses_ = other.near_misses_;
  next_stamp_ = other.next_stamp_;
  ++revision_;
}

void StateStore::adopt_forward(const StateStore& other,
                               std::size_t fault_index) {
  const ForwardSolution* theirs = other.cached_forward(fault_index);
  if (theirs && !cached_forward(fault_index)) {
    store_forward(fault_index, *theirs);
  }
}

// ---------------------------------------------------------------------------
// Justified-sequence cache

void StateStore::record_justified(const State3& cube, Sequence sequence) {
  if (!config_.enabled || sim::cube_is_trivial(cube)) return;
  for (const JustifiedEntry& e : justified_) {
    if (e.cube == cube) return;  // first recorded witness wins
  }
  justified_.push_back({cube, std::move(sequence)});
  ++stats_.seq_inserts;
  ++revision_;
  if (justified_.size() > config_.max_justified) {
    justified_.erase(justified_.begin());
  }
}

bool StateStore::verify(const fault::Fault& fault, const Sequence& sequence,
                        const State3& desired_good, const State3& desired_faulty,
                        const State3& current_good, Sequence& prefix) {
  if (!good_sim_) {
    good_sim_ = std::make_unique<sim::SequenceSimulator>(c_);
    faulty_sim_ = std::make_unique<sim::SequenceSimulator>(c_);
  }
  sim::SequenceSimulator& good = *good_sim_;
  sim::SequenceSimulator& faulty = *faulty_sim_;
  good.reset();
  good.set_state(current_good);
  faulty.reset();
  faulty.clear_overrides();
  // The faulty machine starts from power-up, whose frame cannot launch a
  // transition fault.
  const netlist::NodeId line = fault::launch_line(c_, fault);
  fault::begin_launch(faulty, fault);
  fault::inject(faulty, fault);
  for (std::size_t t = 0; t < sequence.size(); ++t) {
    good.apply_vector(sequence[t]);
    faulty.apply_vector(sequence[t]);
    fault::end_frame(good, faulty, fault, line,
                     [](sim::SequenceSimulator& m) { m.clock(); });
    if ((good.state_match_mask(desired_good) &
         faulty.state_match_mask(desired_faulty) & 1ULL) != 0) {
      prefix.assign(sequence.begin(),
                    sequence.begin() + static_cast<std::ptrdiff_t>(t + 1));
      return true;
    }
  }
  return false;
}

std::optional<Sequence> StateStore::lookup_justified(
    const fault::Fault& fault, const State3& desired_good,
    const State3& desired_faulty, const State3& current_good) {
  if (!config_.enabled) return std::nullopt;
  unsigned verified = 0;
  for (const JustifiedEntry& e : justified_) {
    // Covering entry: any state satisfying the stored cube satisfies both
    // desired cubes (the query subsumes the entry).
    if (!sim::cube_subsumes(desired_good, e.cube) ||
        !sim::cube_subsumes(desired_faulty, e.cube)) {
      continue;
    }
    if (verified >= config_.max_verifies_per_lookup) break;
    ++verified;
    Sequence prefix;
    if (verify(fault, e.sequence, desired_good, desired_faulty, current_good,
               prefix)) {
      ++stats_.seq_hits;
      return prefix;
    }
    ++stats_.seq_verify_failures;
  }
  ++stats_.seq_misses;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Unjustifiable-cube store

void StateStore::record_unjustifiable(const State3& cube) {
  if (!config_.enabled || sim::cube_is_trivial(cube)) return;
  for (const State3& u : unjustifiable_) {
    if (sim::cube_subsumes(u, cube)) {
      ++stats_.unjust_subsumed;  // an existing weaker proof already covers it
      return;
    }
  }
  // Drop stored cubes the new, more general proof covers.
  const auto dropped = std::remove_if(
      unjustifiable_.begin(), unjustifiable_.end(), [&](const State3& u) {
        if (!sim::cube_subsumes(cube, u)) return false;
        ++stats_.unjust_subsumed;
        return true;
      });
  unjustifiable_.erase(dropped, unjustifiable_.end());
  unjustifiable_.push_back(cube);
  ++stats_.unjust_inserts;
  ++revision_;
  if (unjustifiable_.size() > config_.max_unjustifiable) {
    unjustifiable_.erase(unjustifiable_.begin());
  }
}

bool StateStore::known_unjustifiable(const State3& desired) {
  if (!config_.enabled) return false;
  for (const State3& u : unjustifiable_) {
    if (sim::cube_subsumes(u, desired)) {
      ++stats_.unjust_hits;
      return true;
    }
  }
  ++stats_.unjust_misses;
  return false;
}

// ---------------------------------------------------------------------------
// Reachable-state log + GA seeding

void StateStore::record_reachable_trace(const Sequence& segment,
                                        const std::vector<State3>& states) {
  if (!config_.enabled || states.empty() || segment.size() < states.size()) {
    return;
  }
  const auto shared = std::make_shared<const Sequence>(segment);
  for (std::size_t t = 0; t < states.size(); ++t) {
    const State3& st = states[t];
    if (sim::cube_is_trivial(st)) continue;  // all-X teaches nothing
    const bool seen =
        std::any_of(reachable_.begin(), reachable_.end(),
                    [&](const TraceEntry& e) { return e.state == st; });
    if (seen) continue;
    reachable_.push_back({st, shared, t + 1, next_stamp_++});
    ++stats_.reachable_inserts;
    ++revision_;
    if (reachable_.size() > config_.max_reachable) {
      reachable_.erase(reachable_.begin());
    }
  }
}

void StateStore::record_near_miss(const State3& desired, const Sequence& best) {
  if (!config_.enabled || best.empty() || sim::cube_is_trivial(desired)) return;
  const auto shared = std::make_shared<const Sequence>(best);
  for (TraceEntry& e : near_misses_) {
    if (e.state == desired) {
      // Same target cube: the newer best individual replaces the older one.
      e.sequence = shared;
      e.prefix_len = best.size();
      e.stamp = next_stamp_++;
      ++stats_.near_miss_inserts;
      ++revision_;
      return;
    }
  }
  near_misses_.push_back({desired, shared, best.size(), next_stamp_++});
  ++stats_.near_miss_inserts;
  ++revision_;
  if (near_misses_.size() > config_.max_near_misses) {
    near_misses_.erase(near_misses_.begin());
  }
}

std::vector<Sequence> StateStore::seed_sequences(const State3& desired,
                                                 std::size_t max_seeds) {
  std::vector<Sequence> out;
  if (!config_.enabled || max_seeds == 0) return out;
  struct Ranked {
    unsigned agreement = 0;
    std::uint64_t stamp = 0;
    const TraceEntry* entry = nullptr;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(near_misses_.size() + reachable_.size());
  for (const auto* pool : {&near_misses_, &reachable_}) {
    for (const TraceEntry& e : *pool) {
      const unsigned a = sim::cube_agreement(desired, e.state);
      if (a == 0) continue;
      ranked.push_back({a, e.stamp, &e});
    }
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.agreement != b.agreement) return a.agreement > b.agreement;
    return a.stamp > b.stamp;  // unique stamps: total, deterministic order
  });
  const std::size_t n = std::min(max_seeds, ranked.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEntry& e = *ranked[i].entry;
    out.emplace_back(e.sequence->begin(),
                     e.sequence->begin() +
                         static_cast<std::ptrdiff_t>(e.prefix_len));
  }
  stats_.ga_seeds_served += static_cast<long>(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// Per-fault forward-solution cache

const StateStore::ForwardSolution* StateStore::cached_forward(
    std::size_t fault_index) const {
  if (!config_.enabled) return nullptr;
  if (fault_index < forward_valid_.size() && forward_valid_[fault_index]) {
    return &forward_[fault_index];
  }
  return nullptr;
}

const StateStore::ForwardSolution* StateStore::take_cached_forward(
    std::size_t fault_index) {
  const ForwardSolution* cached = cached_forward(fault_index);
  if (cached) ++stats_.forward_cache_hits;
  return cached;
}

void StateStore::cache_forward(std::size_t fault_index, Sequence vectors,
                               State3 required) {
  if (!config_.enabled) return;
  store_forward(fault_index, {std::move(vectors), std::move(required)});
  ++stats_.forward_cache_inserts;
}

void StateStore::store_forward(std::size_t fault_index,
                               ForwardSolution solution) {
  if (forward_.size() <= fault_index) {
    forward_.resize(fault_index + 1);
    forward_valid_.resize(fault_index + 1, 0);
  }
  forward_[fault_index] = std::move(solution);
  forward_valid_[fault_index] = 1;
}

// ---------------------------------------------------------------------------
// Snapshot support

namespace {

void digest_state(serialize::Digest& d, const State3& s) {
  d.add_u64(s.size());
  for (const sim::V3 v : s) d.add_byte(static_cast<std::uint8_t>(v));
}

void digest_sequence(serialize::Digest& d, const Sequence& seq) {
  d.add_u64(seq.size());
  for (const sim::Vector3& vec : seq) digest_state(d, vec);
}

void write_state(serialize::Writer& w, const State3& s) {
  w.u64(s.size());
  for (const sim::V3 v : s) w.u8(static_cast<std::uint8_t>(v));
}

/// Reads a cube or vector of the circuit's flip-flop or PI `width`.
State3 read_state(serialize::Reader& r, std::size_t width) {
  if (r.count(1) != width)  // one byte per ternary value
    throw serialize::SnapshotError("snapshot: store width mismatch");
  State3 s(width);
  for (sim::V3& v : s) {
    const std::uint8_t byte = r.u8();
    if (byte > static_cast<std::uint8_t>(sim::V3::kX))
      throw serialize::SnapshotError("snapshot: invalid ternary value in store");
    v = static_cast<sim::V3>(byte);
  }
  return s;
}

void write_sequence(serialize::Writer& w, const Sequence& seq) {
  w.u64(seq.size());
  for (const sim::Vector3& vec : seq) write_state(w, vec);
}

Sequence read_sequence(serialize::Reader& r, std::size_t pis) {
  Sequence seq(r.count(8));  // each vector carries at least its u64 length
  for (sim::Vector3& vec : seq) vec = read_state(r, pis);
  return seq;
}

}  // namespace

std::uint64_t StateStore::digest() const {
  serialize::Digest d;
  d.add_u64(justified_.size());
  for (const JustifiedEntry& e : justified_) {
    digest_state(d, e.cube);
    digest_sequence(d, e.sequence);
  }
  d.add_u64(unjustifiable_.size());
  for (const State3& u : unjustifiable_) digest_state(d, u);
  for (const auto* pool : {&reachable_, &near_misses_}) {
    d.add_u64(pool->size());
    for (const TraceEntry& e : *pool) {
      digest_state(d, e.state);
      digest_sequence(d, *e.sequence);
      d.add_u64(e.prefix_len);
      d.add_u64(e.stamp);
    }
  }
  d.add_u64(forward_valid_.size());
  for (std::size_t i = 0; i < forward_valid_.size(); ++i) {
    if (!forward_valid_[i]) continue;
    d.add_u64(i);
    digest_sequence(d, forward_[i].vectors);
    digest_state(d, forward_[i].required);
  }
  d.add_u64(next_stamp_);
  serialize::digest_fields(d, stats_);
  return d.value();
}

void StateStore::save(serialize::Writer& w) const {
  w.begin_section("STOR");
  w.boolean(config_.enabled);

  w.u64(justified_.size());
  for (const JustifiedEntry& e : justified_) {
    write_state(w, e.cube);
    write_sequence(w, e.sequence);
  }
  w.u64(unjustifiable_.size());
  for (const State3& u : unjustifiable_) write_state(w, u);

  // Shared trace sequences, deduplicated by first appearance so sharing
  // survives the round trip.
  std::vector<const Sequence*> table;
  std::unordered_map<const Sequence*, std::uint64_t> index_of;
  for (const auto* pool : {&reachable_, &near_misses_}) {
    for (const TraceEntry& e : *pool) {
      const Sequence* p = e.sequence.get();
      if (index_of.emplace(p, table.size()).second) table.push_back(p);
    }
  }
  w.u64(table.size());
  for (const Sequence* p : table) write_sequence(w, *p);
  for (const auto* pool : {&reachable_, &near_misses_}) {
    w.u64(pool->size());
    for (const TraceEntry& e : *pool) {
      write_state(w, e.state);
      w.u64(index_of.at(e.sequence.get()));
      w.u64(e.prefix_len);
      w.u64(e.stamp);
    }
  }

  w.u64(forward_valid_.size());
  for (std::size_t i = 0; i < forward_valid_.size(); ++i) {
    w.u8(forward_valid_[i] ? 1 : 0);
    if (!forward_valid_[i]) continue;
    write_sequence(w, forward_[i].vectors);
    write_state(w, forward_[i].required);
  }

  w.u64(next_stamp_);
  serialize::write_fields(w, stats_);
  w.end_section();
}

void StateStore::load(serialize::Reader& r) {
  r.enter_section("STOR");
  if (r.boolean() != config_.enabled) {
    throw serialize::SnapshotError(
        "snapshot: StateStore enabled flag mismatch");
  }

  const std::size_t ffs = c_.flip_flops().size();
  const std::size_t pis = c_.primary_inputs().size();
  justified_.clear();
  justified_.resize(r.count(16));  // cube + sequence lengths
  for (JustifiedEntry& e : justified_) {
    e.cube = read_state(r, ffs);
    e.sequence = read_sequence(r, pis);
  }
  unjustifiable_.clear();
  unjustifiable_.resize(r.count(8));
  for (State3& u : unjustifiable_) u = read_state(r, ffs);

  std::vector<std::shared_ptr<const Sequence>> table(r.count(8));
  for (auto& p : table)
    p = std::make_shared<const Sequence>(read_sequence(r, pis));
  for (auto* pool : {&reachable_, &near_misses_}) {
    pool->clear();
    pool->resize(r.count(32));  // state length + index + prefix_len + stamp
    for (TraceEntry& e : *pool) {
      e.state = read_state(r, ffs);
      const std::uint64_t idx = r.u64();
      if (idx >= table.size())
        throw serialize::SnapshotError("snapshot: trace sequence index out of range");
      e.sequence = table[idx];
      e.prefix_len = r.u64();
      e.stamp = r.u64();
    }
  }

  const std::uint64_t forward_count = r.count(1);  // one valid byte each
  forward_.clear();
  forward_valid_.clear();
  forward_.resize(forward_count);
  forward_valid_.resize(forward_count, 0);
  for (std::uint64_t i = 0; i < forward_count; ++i) {
    forward_valid_[i] = static_cast<char>(r.u8());
    if (!forward_valid_[i]) continue;
    forward_[i].vectors = read_sequence(r, pis);
    forward_[i].required = read_state(r, ffs);
  }

  next_stamp_ = r.u64();
  serialize::read_fields(r, stats_);
  r.leave_section();
  ++revision_;
}

void StateStore::clear() {
  justified_.clear();
  unjustifiable_.clear();
  reachable_.clear();
  near_misses_.clear();
  forward_.clear();
  forward_valid_.clear();
  next_stamp_ = 0;
  stats_ = StateStoreStats{};
  ++revision_;
}

void StateStore::drop_unverified() {
  unjustifiable_.clear();
  forward_.clear();
  forward_valid_.clear();
  ++revision_;
}

}  // namespace gatpg::state
