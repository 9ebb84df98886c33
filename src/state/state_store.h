// Cross-fault state-knowledge layer: a ternary state-cube knowledge base
// owned by session::Session and consulted/fed by every justification layer.
//
// GA-HITEC's passes repeatedly justify the same or overlapping flip-flop
// state cubes — many faults share excitation states, and later passes
// re-derive what earlier passes already established.  The StateStore keeps
// three kinds of knowledge alive across faults and passes:
//
//   1. Justified-sequence cache.  On a GA or deterministic justification
//      success, (cube -> sequence) is recorded.  A later query whose desired
//      cube is *covered* by a stored entry (the query subsumes the entry:
//      every literal of the query appears in the entry, so any state
//      satisfying the entry satisfies the query) returns the stored sequence
//      after a cheap re-simulation verify against the query's actual start
//      state and fault — hit = the whole search skipped.
//   2. Unjustifiable-cube store.  When the reverse-time justifier exhausts
//      at the top level without clipping (the existing untestability-proof
//      condition), the target cube is *provably* unreachable from any state.
//      Any later desired cube subsumed by a stored cube (i.e. at least as
//      constrained) fails instantly, and the rejection still counts as a
//      proof for the engine's untestability logic.  Sub-recursion
//      kUnjustifiable results are NOT recorded: they can stem from
//      requirement-cycle pruning relative to the outer path and are only
//      valid in that context.
//   3. Reachable-state log + GA seeding.  Good-machine states visited while
//      committing tests (harvested from the session fault simulator) and GA
//      near-miss sequences are logged with their incoming sequences; GA
//      populations are seeded with the sequences whose recorded states agree
//      best with the desired cube, replacing purely random initialization
//      for a configurable fraction of the population.
//
// Determinism rules: every index is a plain insertion-ordered vector scanned
// linearly (no pointer or hash iteration order can leak into results);
// eviction is FIFO at constant caps; ranking ties break on a monotonic
// insertion stamp.  All store access happens on the serial engine thread —
// the worker pools never touch it — so results are thread-count-independent
// by construction.  With `StateStoreConfig{enabled = false}` (the default)
// every method returns early, so callers never branch on enabled().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault.h"
#include "netlist/circuit.h"
#include "sim/seqsim.h"
#include "util/fields.h"

namespace gatpg::serialize {
class Writer;
class Reader;
}  // namespace gatpg::serialize

namespace gatpg::state {

struct StateStoreConfig {
  /// Master switch; a disabled store is inert (every method returns early),
  /// so engines run exactly as without a store.
  bool enabled = false;
  /// Capacity caps (FIFO eviction beyond them).
  static constexpr std::size_t max_justified = 512;
  static constexpr std::size_t max_unjustifiable = 1024;
  static constexpr std::size_t max_reachable = 1024;
  static constexpr std::size_t max_near_misses = 256;
  /// Covering justified-cache entries re-verified per lookup before
  /// declaring a miss (bounds the verify cost of popular cubes).
  static constexpr unsigned max_verifies_per_lookup = 4;
  /// Fraction of each GA population seeded from the reachable/near-miss
  /// log (the rest stays random).
  static constexpr double ga_seed_fraction = 0.25;
};

/// Effectiveness counters, mirrored into session::EngineCounters so
/// observers and benches report cache behavior.  All values are
/// deterministic and thread-count-independent.
struct StateStoreStats {
  long seq_hits = 0;            ///< justified-cache hits (verified)
  long seq_misses = 0;          ///< lookups with no verified covering entry
  long seq_inserts = 0;
  long seq_verify_failures = 0; ///< covering entries rejected by re-simulation
  long unjust_hits = 0;         ///< queries proven unjustifiable by the store
  long unjust_misses = 0;
  long unjust_inserts = 0;
  long unjust_subsumed = 0;     ///< cubes skipped/dropped as redundant
  long reachable_inserts = 0;
  long near_miss_inserts = 0;
  long ga_seeds_served = 0;     ///< seed sequences handed to GA populations
  long forward_cache_hits = 0;  ///< forward solutions reused across passes
  long forward_cache_inserts = 0;

  /// Field list (util/fields.h), in declaration order.
  static constexpr auto fields() {
    using S = StateStoreStats;
    return std::make_tuple(
        util::Field{"seq_hits", &S::seq_hits},
        util::Field{"seq_misses", &S::seq_misses},
        util::Field{"seq_inserts", &S::seq_inserts},
        util::Field{"seq_verify_failures", &S::seq_verify_failures},
        util::Field{"unjust_hits", &S::unjust_hits},
        util::Field{"unjust_misses", &S::unjust_misses},
        util::Field{"unjust_inserts", &S::unjust_inserts},
        util::Field{"unjust_subsumed", &S::unjust_subsumed},
        util::Field{"reachable_inserts", &S::reachable_inserts},
        util::Field{"near_miss_inserts", &S::near_miss_inserts},
        util::Field{"ga_seeds_served", &S::ga_seeds_served},
        util::Field{"forward_cache_hits", &S::forward_cache_hits},
        util::Field{"forward_cache_inserts", &S::forward_cache_inserts});
  }
  StateStoreStats& operator+=(const StateStoreStats& o) {
    util::for_each_field([](auto, long& x, long y) { x += y; }, *this, o);
    return *this;
  }
  StateStoreStats& operator-=(const StateStoreStats& o) {
    util::for_each_field([](auto, long& x, long y) { x -= y; }, *this, o);
    return *this;
  }
  bool operator==(const StateStoreStats&) const = default;
};
static_assert(util::fields_cover<StateStoreStats>());

class StateStore {
 public:
  /// A cached excitation/propagation solution of one fault (the forward
  /// engine's first solution, reused across passes instead of recomputed).
  struct ForwardSolution {
    sim::Sequence vectors;
    sim::State3 required;
  };

  StateStore(const netlist::Circuit& c, StateStoreConfig config = {});

  bool enabled() const { return config_.enabled; }
  const StateStoreConfig& config() const { return config_; }
  const StateStoreStats& stats() const { return stats_; }

  /// Monotonic counter bumped on every write to *shared* content: the
  /// justified, unjustifiable, reachable and near-miss caches and the stamp
  /// counter (inserts, drops, replacements, adopt_content, load, clear,
  /// drop_unverified).  Per-fault forward slots are private to their fault
  /// (only that fault's target reads one), so cache_forward does not bump
  /// it; neither do stats-only changes (hit/miss tallies).  The speculative
  /// targeting layer compares revisions to decide whether a target changed
  /// what another fault could read.  Not part of digest()/save(): two stores
  /// with equal content are equal regardless of how they got there.
  std::uint64_t revision() const { return revision_; }

  /// Deep copy of content, stats, stamp counter, revision, and config.
  /// Verify machines are not copied (they are lazy scratch); the clone is
  /// fully independent and safe to use from another thread.
  std::unique_ptr<StateStore> clone() const;

  /// Replaces this store's shared content (the four caches and the stamp
  /// counter) with `other`'s, leaving forward slots, stats and config
  /// untouched, and bumps the revision.  The commit step of speculative
  /// targeting uses this to adopt a lane clone's shared content in fault
  /// order.
  void adopt_content(const StateStore& other);

  /// Copies `other`'s forward slot for `fault_index` into this store when
  /// this store has none there (an existing slot is never overwritten);
  /// no other slot, stat or revision changes.  The commit step merges the
  /// committing fault's own slot from its lane clone this way.
  void adopt_forward(const StateStore& other, std::size_t fault_index);

  /// Adds `delta` onto the stats — the commit step folds each lane's stats
  /// delta (end minus snapshot) so same-epoch commits stack exactly like the
  /// serial run's sequential lookups.
  void apply_stats_delta(const StateStoreStats& delta) { stats_ += delta; }

  // -- 1. Justified-sequence cache ------------------------------------------

  /// Records a successful justification: `sequence` provably drives the
  /// machine into a state satisfying `cube` (from the all-X start by
  /// 3-valued monotonicity, hence from any start on the good machine).
  /// Trivial (all-X) cubes and exact-duplicate cubes are skipped.
  void record_justified(const sim::State3& cube, sim::Sequence sequence);

  /// Queries the cache for `(desired_good, desired_faulty)` from
  /// `current_good` with `fault` injected in the faulty machine.  Covering
  /// entries are re-verified by simulating the stored sequence on a
  /// good/faulty machine pair (same acceptance rule as the GA: both desired
  /// cubes satisfied after some prefix); the first verified entry's matching
  /// prefix is returned.
  std::optional<sim::Sequence> lookup_justified(const fault::Fault& fault,
                                                const sim::State3& desired_good,
                                                const sim::State3& desired_faulty,
                                                const sim::State3& current_good);

  // -- 2. Unjustifiable-cube store ------------------------------------------

  /// Records a *proven* unjustifiable cube (top-level reverse-time
  /// exhaustion without clipping).  Cubes subsumed by an existing entry are
  /// skipped; existing entries subsumed by the new, more general cube are
  /// dropped (both counted in stats().unjust_subsumed).
  void record_unjustifiable(const sim::State3& cube);

  /// True iff a stored cube subsumes `desired` — `desired` then provably
  /// has no justifying sequence, and the engine may treat the rejection as
  /// a completed proof.
  bool known_unjustifiable(const sim::State3& desired);

  // -- 3. Reachable-state log + GA seeding ----------------------------------

  /// Logs the good-machine states visited while simulating a committed test
  /// segment: states[t] is the state after vector t of `segment`, so the
  /// prefix segment[0..t] is a witness sequence reaching it.  All-X and
  /// already-logged states are skipped.
  void record_reachable_trace(const sim::Sequence& segment,
                              const std::vector<sim::State3>& states);

  /// Logs a GA failure's best individual against the cube it targeted, so a
  /// later pass hunting the same or a similar cube can resume from it.  A
  /// newer near miss for the same cube replaces the older one.
  void record_near_miss(const sim::State3& desired, const sim::Sequence& best);

  /// Up to `max_seeds` seed sequences for a GA population targeting
  /// `desired`, ranked by agreement of the logged state/cube with `desired`
  /// (ties: newest first).  Zero-agreement entries are never returned.
  std::vector<sim::Sequence> seed_sequences(const sim::State3& desired,
                                            std::size_t max_seeds);

  // -- Per-fault forward-solution cache -------------------------------------
  // Slot i is private to fault i: only fault i's target reads or writes it.

  /// Pure lookup (no stats side effect).
  const ForwardSolution* cached_forward(std::size_t fault_index) const;
  /// Stats-counting lookup for when the cached solution is actually
  /// consumed instead of re-derived.
  const ForwardSolution* take_cached_forward(std::size_t fault_index);
  /// Fills (or replaces) the fault's slot.  A private write: the revision
  /// stays put.
  void cache_forward(std::size_t fault_index, sim::Sequence vectors,
                     sim::State3 required);

  std::size_t justified_size() const { return justified_.size(); }
  std::size_t unjustifiable_size() const { return unjustifiable_.size(); }
  std::size_t reachable_size() const { return reachable_.size(); }
  std::size_t near_miss_size() const { return near_misses_.size(); }

  // -- Snapshot support ------------------------------------------------------

  /// FNV-1a-64 over every cache's contents, the insertion stamps, and the
  /// effectiveness stats — any divergence between a resumed and an
  /// uninterrupted run shows up here.
  std::uint64_t digest() const;
  /// Serializes all four caches, the stamp counter, and the stats.  Shared
  /// trace sequences are deduplicated through a first-appearance table so
  /// the O(len)-not-O(len^2) sharing survives the round trip.  The enabled
  /// flag is recorded and verified by load(), and every cube and vector
  /// must be as wide as this circuit's flip-flops or PIs.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

  /// Resets every cache, the stamp counter, and the stats to the
  /// freshly-constructed state (config and verify machines are kept), so a
  /// store a partial load() left half-populated can be returned to the
  /// genuine cold-start state.
  void clear();

  /// Drops the knowledge that is only sound for the exact netlist it was
  /// learned on: unjustifiable-cube proofs and per-fault forward solutions.
  /// Justified sequences, reachable states, and near misses survive — they
  /// are re-verified or merely rank GA seeds, so stale entries cost a
  /// verify, never correctness.  The daemon calls this when warming a
  /// store across netlist revisions.
  void drop_unverified();

 private:
  struct JustifiedEntry {
    sim::State3 cube;
    sim::Sequence sequence;
  };
  /// One logged state (or targeted cube, for near misses) with the sequence
  /// prefix that reaches (or approached) it.  The full segment is shared so
  /// logging every prefix of a long test costs O(len) instead of O(len^2).
  struct TraceEntry {
    sim::State3 state;
    std::shared_ptr<const sim::Sequence> sequence;
    std::size_t prefix_len = 0;
    std::uint64_t stamp = 0;
  };

  /// Writes slot `fault_index`, growing the slot table as needed.
  void store_forward(std::size_t fault_index, ForwardSolution solution);

  /// Re-simulates `sequence` from (`current_good`, all-X + fault) and, on
  /// the first vector after which both desired cubes hold, writes that
  /// prefix to `prefix` and returns true.
  bool verify(const fault::Fault& fault, const sim::Sequence& sequence,
              const sim::State3& desired_good, const sim::State3& desired_faulty,
              const sim::State3& current_good, sim::Sequence& prefix);

  const netlist::Circuit& c_;
  StateStoreConfig config_;
  StateStoreStats stats_;
  std::uint64_t next_stamp_ = 0;
  std::uint64_t revision_ = 0;

  std::vector<JustifiedEntry> justified_;
  std::vector<sim::State3> unjustifiable_;
  std::vector<TraceEntry> reachable_;
  std::vector<TraceEntry> near_misses_;
  std::vector<ForwardSolution> forward_;
  std::vector<char> forward_valid_;

  /// Verify machines, created lazily and reused across lookups.
  std::unique_ptr<sim::SequenceSimulator> good_sim_;
  std::unique_ptr<sim::SequenceSimulator> faulty_sim_;
};

}  // namespace gatpg::state
