// State-knowledge layer tests: the 3-valued cube algebra (subsumption
// X-edge cases), StateStore unit behavior (dedup, caps, subsumption
// maintenance, seed ranking, verified lookups, disabled inertness), and the
// engine-level guarantees — store-on runs are thread-count-independent, a
// fault is never detected in one mode and untestable in the other, and the
// two modes match exactly when neither run aborts a search.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/faultlist.h"
#include "gen/registry.h"
#include "helpers/differential.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/depth.h"
#include "serialize/archive.h"
#include "session/session.h"
#include "sim/seqsim.h"
#include "state/state_store.h"
#include "util/rng.h"

namespace gatpg {
namespace {

using sim::Sequence;
using sim::State3;
using sim::V3;
using sim::Vector3;
using state::StateStore;
using state::StateStoreConfig;

State3 cube(const std::string& s) {
  State3 c;
  c.reserve(s.size());
  for (char ch : s) {
    c.push_back(ch == '0' ? V3::k0 : ch == '1' ? V3::k1 : V3::kX);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Cube algebra

TEST(CubeAlgebra, AllXSubsumesEverything) {
  EXPECT_TRUE(sim::cube_subsumes(cube("XXX"), cube("010")));
  EXPECT_TRUE(sim::cube_subsumes(cube("XXX"), cube("XXX")));
  EXPECT_TRUE(sim::cube_subsumes(cube("XXX"), cube("X1X")));
}

TEST(CubeAlgebra, DefinedLiteralNeverSubsumesAllX) {
  // The all-X cube contains states violating any literal.
  EXPECT_FALSE(sim::cube_subsumes(cube("1XX"), cube("XXX")));
  EXPECT_FALSE(sim::cube_subsumes(cube("XX0"), cube("XXX")));
}

TEST(CubeAlgebra, EveryCubeSubsumesItself) {
  for (const char* s : {"010", "XXX", "1X0", "X1X"}) {
    EXPECT_TRUE(sim::cube_subsumes(cube(s), cube(s))) << s;
  }
}

TEST(CubeAlgebra, PartialOverlap) {
  // 0X subsumes 01 (adding literals shrinks the state set), not vice versa.
  EXPECT_TRUE(sim::cube_subsumes(cube("0X"), cube("01")));
  EXPECT_FALSE(sim::cube_subsumes(cube("01"), cube("0X")));
  // Conflicting literals: neither direction.
  EXPECT_FALSE(sim::cube_subsumes(cube("0X"), cube("1X")));
  EXPECT_FALSE(sim::cube_subsumes(cube("1X"), cube("0X")));
  // Disjoint defined positions: neither covers the other.
  EXPECT_FALSE(sim::cube_subsumes(cube("1X"), cube("X1")));
  EXPECT_FALSE(sim::cube_subsumes(cube("X1"), cube("1X")));
}

TEST(CubeAlgebra, AgreementCountsDefinedMatchesOnly) {
  EXPECT_EQ(sim::cube_agreement(cube("01X"), cube("010")), 2u);
  EXPECT_EQ(sim::cube_agreement(cube("01X"), cube("110")), 1u);
  // An X in the state does not satisfy a defined literal.
  EXPECT_EQ(sim::cube_agreement(cube("01X"), cube("0XX")), 1u);
  EXPECT_EQ(sim::cube_agreement(cube("XXX"), cube("010")), 0u);
}

TEST(CubeAlgebra, Trivial) {
  EXPECT_TRUE(sim::cube_is_trivial(cube("XXX")));
  EXPECT_TRUE(sim::cube_is_trivial(cube("")));
  EXPECT_FALSE(sim::cube_is_trivial(cube("XX1")));
}

// ---------------------------------------------------------------------------
// StateStore units

StateStoreConfig enabled_config() {
  StateStoreConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(StateStoreUnit, DisabledStoreIsInert) {
  const auto c = gen::make_circuit("s27");
  StateStore store(c);  // default config: disabled
  EXPECT_FALSE(store.enabled());
  store.record_justified(cube("010"), {Vector3{V3::k0}});
  store.record_unjustifiable(cube("010"));
  store.record_near_miss(cube("010"), {Vector3{V3::k0}});
  store.record_reachable_trace({Vector3{V3::k0}}, {cube("010")});
  store.cache_forward(0, {Vector3{V3::k0}}, cube("010"));
  EXPECT_EQ(store.justified_size(), 0u);
  EXPECT_EQ(store.unjustifiable_size(), 0u);
  EXPECT_EQ(store.reachable_size(), 0u);
  EXPECT_EQ(store.near_miss_size(), 0u);
  EXPECT_EQ(store.cached_forward(0), nullptr);
  EXPECT_FALSE(store.known_unjustifiable(cube("010")));
  const fault::Fault f{1, fault::kOutputPin, true};
  EXPECT_FALSE(
      store.lookup_justified(f, cube("010"), cube("XXX"), cube("XXX")));
  EXPECT_TRUE(store.seed_sequences(cube("010"), 8).empty());
  // A disabled store never even counts: zero everywhere.
  test::expect_counters_equal(store.stats(), state::StateStoreStats{});
}

TEST(StateStoreUnit, JustifiedDedupAndFifoCap) {
  const auto c = gen::make_circuit("s27");
  StateStore store(c, enabled_config());
  store.record_justified(cube("XXX"), {});  // trivial: skipped
  EXPECT_EQ(store.justified_size(), 0u);
  store.record_justified(cube("0XX"), {Vector3{V3::k0}});
  store.record_justified(cube("0XX"), {Vector3{V3::k1}});  // duplicate cube
  EXPECT_EQ(store.justified_size(), 1u);
  EXPECT_EQ(store.stats().seq_inserts, 1);

  // The cap is a constant; g382's 18 flip-flops give enough distinct fully
  // specified cubes (cube n spells n in binary) to fill the cache past it.
  const auto big = gen::make_circuit("g382");
  const std::size_t cap = StateStoreConfig::max_justified;
  const Sequence witness{Vector3(big.primary_inputs().size(), V3::k0)};
  const auto nth_cube = [&](std::size_t n) {
    State3 s(big.flip_flops().size());
    for (std::size_t k = 0; k < s.size(); ++k) {
      s[k] = ((n >> k) & 1) ? V3::k1 : V3::k0;
    }
    return s;
  };
  ASSERT_GT(std::size_t{1} << big.flip_flops().size(), cap + 1);
  StateStore full(big, enabled_config());
  for (std::size_t n = 0; n < cap; ++n) {
    full.record_justified(nth_cube(n), witness);
  }
  EXPECT_EQ(full.justified_size(), cap);
  full.record_justified(nth_cube(cap), witness);  // evicts cube 0
  EXPECT_EQ(full.justified_size(), cap);
  EXPECT_EQ(full.stats().seq_inserts, static_cast<long>(cap) + 1);
  full.record_justified(nth_cube(1), witness);  // still cached: a duplicate
  EXPECT_EQ(full.stats().seq_inserts, static_cast<long>(cap) + 1);
  full.record_justified(nth_cube(0), witness);  // evicted: inserted again
  EXPECT_EQ(full.stats().seq_inserts, static_cast<long>(cap) + 2);
  EXPECT_EQ(full.justified_size(), cap);
}

TEST(StateStoreUnit, UnjustifiableSubsumptionMaintenance) {
  const auto c = gen::make_circuit("s27");
  StateStore store(c, enabled_config());
  store.record_unjustifiable(cube("01X"));
  EXPECT_EQ(store.unjustifiable_size(), 1u);
  // A more specific cube is already covered: skipped, counted subsumed.
  store.record_unjustifiable(cube("011"));
  EXPECT_EQ(store.unjustifiable_size(), 1u);
  EXPECT_EQ(store.stats().unjust_subsumed, 1);
  // Hits: any query at least as constrained as a stored proof.
  EXPECT_TRUE(store.known_unjustifiable(cube("011")));
  EXPECT_TRUE(store.known_unjustifiable(cube("010")));
  EXPECT_TRUE(store.known_unjustifiable(cube("01X")));
  // Misses: weaker or conflicting queries are not covered.
  EXPECT_FALSE(store.known_unjustifiable(cube("0XX")));
  EXPECT_FALSE(store.known_unjustifiable(cube("00X")));
  EXPECT_FALSE(store.known_unjustifiable(cube("XXX")));
  // A more general proof replaces the specific one it covers.
  store.record_unjustifiable(cube("0XX"));
  EXPECT_EQ(store.unjustifiable_size(), 1u);
  EXPECT_EQ(store.stats().unjust_subsumed, 2);
  EXPECT_TRUE(store.known_unjustifiable(cube("00X")));
}

TEST(StateStoreUnit, SeedRankingIsAgreementThenRecency) {
  const auto c = gen::make_circuit("s27");
  StateStore store(c, enabled_config());
  const Sequence seg{Vector3{V3::k0, V3::k0, V3::k1, V3::k1},
                     Vector3{V3::k1, V3::k0, V3::k1, V3::k1},
                     Vector3{V3::k0, V3::k1, V3::k1, V3::k1}};
  // states[t] is reached by the prefix of length t+1.
  store.record_reachable_trace(seg, {cube("00X"), cube("011"), cube("111")});
  EXPECT_EQ(store.reachable_size(), 3u);

  const auto seeds = store.seed_sequences(cube("01X"), 8);
  // Agreement with 01X: 011 -> 2; 00X -> 1; 111 -> 1 (newer than 00X).
  ASSERT_EQ(seeds.size(), 3u);
  EXPECT_EQ(seeds[0].size(), 2u);  // prefix reaching 011
  EXPECT_EQ(seeds[1].size(), 3u);  // 111: agreement 1, newest stamp
  EXPECT_EQ(seeds[2].size(), 1u);  // 00X: agreement 1, older
  // Zero-agreement cubes are filtered entirely.
  EXPECT_TRUE(store.seed_sequences(cube("XX0"), 8).empty());
  // max_seeds truncates the ranked list.
  EXPECT_EQ(store.seed_sequences(cube("01X"), 1).size(), 1u);
}

TEST(StateStoreUnit, NearMissReplacedByNewerForSameCube) {
  const auto c = gen::make_circuit("s27");
  StateStore store(c, enabled_config());
  const Sequence old_best{Vector3{V3::k0, V3::k0, V3::k0, V3::k0}};
  const Sequence new_best{Vector3{V3::k1, V3::k1, V3::k1, V3::k1},
                          Vector3{V3::k1, V3::k1, V3::k1, V3::k1}};
  store.record_near_miss(cube("01X"), old_best);
  store.record_near_miss(cube("01X"), new_best);
  EXPECT_EQ(store.near_miss_size(), 1u);
  const auto seeds = store.seed_sequences(cube("01X"), 4);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0], new_best);
}

TEST(StateStoreUnit, LookupReVerifiesOnTheQuerysMachine) {
  const auto c = gen::make_circuit("s27");
  StateStore store(c, enabled_config());

  // Drive the good machine from power-up X with a fixed sequence and log the
  // state it actually reaches.
  const std::size_t num_pi = c.primary_inputs().size();
  const Sequence seq{Vector3(num_pi, V3::k0), Vector3(num_pi, V3::k1),
                     Vector3(num_pi, V3::k0)};
  sim::SequenceSimulator good(c);
  good.run_sequence(seq);
  const State3 reached = good.state();
  ASSERT_FALSE(sim::cube_is_trivial(reached));

  store.record_justified(reached, seq);
  const fault::Fault f{c.primary_inputs()[0], fault::kOutputPin, true};
  const State3 all_x(reached.size(), V3::kX);

  // Covering query (the cube itself), faulty side unconstrained: the stored
  // sequence verifies and its matching prefix comes back.
  const auto hit = store.lookup_justified(f, reached, all_x, all_x);
  ASSERT_TRUE(hit.has_value());
  EXPECT_LE(hit->size(), seq.size());
  sim::SequenceSimulator replay(c);
  replay.run_sequence(*hit);
  EXPECT_TRUE(sim::cube_subsumes(reached, replay.state()));
  EXPECT_EQ(store.stats().seq_hits, 1);

  // An entry whose witness sequence does not actually reach the queried
  // cube is screened out by the verify, not returned.  The one-vector
  // prefix must not already satisfy the cube for this to be a real probe.
  const Sequence wrong_witness{seq[0]};
  sim::SequenceSimulator probe(c);
  probe.run_sequence(wrong_witness);
  ASSERT_FALSE(sim::cube_subsumes(reached, probe.state()));
  StateStore fresh(c, enabled_config());
  fresh.record_justified(reached, wrong_witness);
  EXPECT_FALSE(fresh.lookup_justified(f, reached, all_x, all_x));
  EXPECT_EQ(fresh.stats().seq_verify_failures, 1);
  EXPECT_EQ(fresh.stats().seq_misses, 1);
}

TEST(StateStoreUnit, ForwardCacheTakeCountsHits) {
  const auto c = gen::make_circuit("s27");
  StateStore store(c, enabled_config());
  EXPECT_EQ(store.take_cached_forward(5), nullptr);
  EXPECT_EQ(store.stats().forward_cache_hits, 0);
  store.cache_forward(5, {Vector3{V3::k1}}, cube("1XX"));
  ASSERT_NE(store.cached_forward(5), nullptr);
  EXPECT_EQ(store.stats().forward_cache_hits, 0);  // pure lookup: no count
  const auto* taken = store.take_cached_forward(5);
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(taken->required, cube("1XX"));
  EXPECT_EQ(store.stats().forward_cache_hits, 1);
  EXPECT_EQ(store.cached_forward(4), nullptr);  // neighbors untouched
}

// The revision counts writes to shared content only: the speculative
// committer ends a lane epoch on a revision change, and a forward slot is
// read by its own fault alone.
TEST(StateStoreUnit, RevisionCountsSharedWritesOnly) {
  const auto c = gen::make_circuit("s27");
  const Vector3 pi(c.primary_inputs().size(), V3::k0);
  StateStore store(c, enabled_config());
  std::uint64_t rev = store.revision();
  const auto expect_bump = [&](const char* what) {
    EXPECT_GT(store.revision(), rev) << what;
    rev = store.revision();
  };

  store.cache_forward(2, {pi}, cube("1XX"));
  EXPECT_EQ(store.revision(), rev) << "cache_forward";
  EXPECT_EQ(store.stats().forward_cache_inserts, 1);

  store.record_justified(cube("0XX"), {pi});
  expect_bump("record_justified");
  store.record_unjustifiable(cube("11X"));
  expect_bump("record_unjustifiable");
  store.record_reachable_trace({pi}, {cube("010")});
  expect_bump("record_reachable_trace");
  store.record_near_miss(cube("X01"), {pi});
  expect_bump("record_near_miss");

  StateStore other(c, enabled_config());
  other.record_justified(cube("X1X"), {pi});
  store.adopt_content(other);
  expect_bump("adopt_content");
  EXPECT_EQ(store.justified_size(), 1u);
  EXPECT_EQ(store.unjustifiable_size(), 0u);
  // The adopter's own forward slot survives; the donor had none to offer.
  ASSERT_NE(store.cached_forward(2), nullptr);
  EXPECT_EQ(store.cached_forward(2)->required, cube("1XX"));

  serialize::Writer w;
  other.save(w);
  serialize::Reader r(w.finish());
  store.load(r);
  expect_bump("load");
  store.drop_unverified();
  expect_bump("drop_unverified");
  store.clear();
  expect_bump("clear");
}

TEST(StateStoreUnit, AdoptContentKeepsTheAdoptersForwardSlots) {
  const auto c = gen::make_circuit("s27");
  const Vector3 pi(c.primary_inputs().size(), V3::k1);
  StateStore mine(c, enabled_config());
  mine.cache_forward(1, {pi}, cube("0XX"));
  StateStore theirs(c, enabled_config());
  theirs.cache_forward(1, {pi, pi}, cube("1XX"));
  theirs.cache_forward(3, {pi}, cube("X1X"));
  mine.adopt_content(theirs);
  ASSERT_NE(mine.cached_forward(1), nullptr);
  EXPECT_EQ(mine.cached_forward(1)->required, cube("0XX"));
  EXPECT_EQ(mine.cached_forward(3), nullptr);
}

TEST(StateStoreUnit, AdoptForwardMergesOnlyTheNamedMissingSlot) {
  const auto c = gen::make_circuit("s27");
  const Vector3 pi(c.primary_inputs().size(), V3::k0);
  StateStore lane(c, enabled_config());
  lane.cache_forward(0, {pi}, cube("0XX"));
  lane.cache_forward(2, {pi, pi}, cube("X0X"));
  lane.cache_forward(4, {pi}, cube("XX0"));

  StateStore master(c, enabled_config());
  master.cache_forward(4, {pi}, cube("XX1"));
  const state::StateStoreStats stats_before = master.stats();
  const std::uint64_t rev = master.revision();

  master.adopt_forward(lane, 2);
  ASSERT_NE(master.cached_forward(2), nullptr);
  EXPECT_EQ(master.cached_forward(2)->required, cube("X0X"));
  EXPECT_EQ(master.cached_forward(2)->vectors, (Sequence{pi, pi}));
  EXPECT_EQ(master.cached_forward(0), nullptr);  // other slots stay out
  // An existing slot is never overwritten.
  master.adopt_forward(lane, 4);
  EXPECT_EQ(master.cached_forward(4)->required, cube("XX1"));
  // A slot the donor lacks stays empty.
  master.adopt_forward(lane, 7);
  EXPECT_EQ(master.cached_forward(7), nullptr);
  EXPECT_EQ(master.revision(), rev);
  test::expect_counters_equal(master.stats(), stats_before);

  // Merging a slot leaves the store exactly as caching it directly would.
  StateStore serial(c, enabled_config());
  serial.cache_forward(4, {pi}, cube("XX1"));
  serial.cache_forward(2, {pi, pi}, cube("X0X"));
  state::StateStoreStats lane_delta;
  lane_delta.forward_cache_inserts = 1;  // the lane's insert, folded
  master.apply_stats_delta(lane_delta);
  EXPECT_EQ(master.digest(), serial.digest());
}

// ---------------------------------------------------------------------------
// Engine-level guarantees

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}

std::uint64_t hash_result(const session::SessionResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& vec : r.test_set) {
    h = fnv1a(h, 0x5eedULL);
    for (sim::V3 v : vec) h = fnv1a(h, static_cast<std::uint64_t>(v));
  }
  for (auto s : r.fault_state) h = fnv1a(h, static_cast<std::uint64_t>(s));
  h = fnv1a(h, r.segments.size());
  return h;
}

hybrid::HybridConfig small_hybrid_config() {
  // The HybridGaHitecG298 golden configuration: deterministic budgets
  // binding, wall-clock limits never binding, small GA.
  hybrid::HybridConfig cfg;
  cfg.schedule = session::PassSchedule::ga_hitec(1.0);
  for (auto& p : cfg.schedule.passes) {
    p.time_limit_s = 1000.0;
    p.max_backtracks = 300;
    p.ga_population = 64;
    p.ga_generations = 2;
  }
  cfg.max_solutions_per_fault = 4;
  cfg.seed = 3;
  return cfg;
}

// Store-on golden: the store changes
// the search trajectory, so this is a distinct constant family from the
// store-off goldens in test_session.cpp — but it must be just as
// reproducible at any thread count.
TEST(StateStoreEngine, StoreOnGoldenS27) {
  const auto c = gen::make_circuit("s27");
  for (unsigned threads : {1u, 4u}) {
    hybrid::HybridConfig cfg;
    cfg.schedule = session::PassSchedule::ga_hitec(1.0);
    cfg.seed = 7;
    cfg.state_store.enabled = true;
    cfg.parallel.threads = threads;
    const auto r = hybrid::HybridAtpg(c, cfg).run();
    std::uint64_t test_hash = 0xcbf29ce484222325ULL;
    for (const auto& vec : r.test_set) {
      test_hash = fnv1a(test_hash, 0x5eedULL);
      for (sim::V3 v : vec)
        test_hash = fnv1a(test_hash, static_cast<std::uint64_t>(v));
    }
    EXPECT_EQ(test_hash, 0x39f87b1bd51642adULL) << "threads " << threads;
    EXPECT_EQ(r.detected(), 32u);
    EXPECT_EQ(r.untestable(), 0u);
    EXPECT_EQ(r.test_set.size(), 22u);
    EXPECT_EQ(r.segments.size(), 8u);
    EXPECT_EQ(r.counters.store.seq_hits, 2);
    EXPECT_EQ(r.counters.store.seq_inserts, 4);
    EXPECT_EQ(r.counters.store.seq_verify_failures, 3);
    EXPECT_EQ(r.counters.store.reachable_inserts, 7);
  }
}

TEST(StateStoreEngine, StoreOnRunsAreThreadCountIndependent) {
  const auto c = gen::make_circuit("g298");
  std::uint64_t hashes[2];
  long hits[2];
  unsigned idx = 0;
  for (unsigned threads : {1u, 4u}) {
    hybrid::HybridConfig cfg = small_hybrid_config();
    cfg.parallel.threads = threads;
    cfg.state_store.enabled = true;
    const auto r = hybrid::HybridAtpg(c, cfg).run();
    hashes[idx] = hash_result(r);
    hits[idx] = r.counters.store.seq_hits + r.counters.store.unjust_hits +
                r.counters.store.forward_cache_hits;
    ++idx;
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hits[0], hits[1]);
  // Effectiveness: the escalating GA-HITEC schedule re-targets surviving
  // faults, so the knowledge base must pay off at least once.
  EXPECT_GT(hits[0], 0);
}

/// Runs the hybrid engine over an explicit fault subset with the store on or
/// off, mirroring HybridAtpg::run (which always collapses the full list).
session::SessionResult run_subset(const netlist::Circuit& c,
                                  const hybrid::HybridConfig& cfg,
                                  const fault::FaultList& subset,
                                  bool store_on) {
  session::SessionConfig scfg = cfg.session_config();
  scfg.state_store.enabled = store_on;
  session::Session s(c, subset, scfg);
  util::Rng rng(cfg.seed);
  hybrid::HybridEngine engine(c, cfg, netlist::sequential_depth(c), rng);
  return s.run(engine, cfg.schedule);
}

// The store contract: detected/untestable claims are sound in both modes,
// so the two runs may never disagree on a resolved fault's class, and with
// no aborted searches on either side the resolution is complete and must
// match exactly.  (With aborts, the store may change which faults a
// budgeted run detects.)
TEST(StateStoreEngine, StoreNeverChangesFaultResolution) {
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE(name);
    const auto c = gen::make_circuit(name);
    const fault::FaultList all = fault::collapse(c);

    // Deterministic per-circuit sample keeps the sweep affordable.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char ch : name) h = fnv1a(h, static_cast<std::uint64_t>(ch));
    util::Rng rng(h | 1);
    constexpr std::size_t kSample = 16;
    fault::FaultList subset;
    if (all.size() <= kSample) {
      subset = all;
    } else {
      std::vector<std::size_t> indices(all.size());
      for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
      for (std::size_t i = 0; i < kSample; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng() % (indices.size() - i));
        std::swap(indices[i], indices[j]);
        subset.faults.push_back(all.faults[indices[i]]);
        subset.class_sizes.push_back(all.class_sizes[indices[i]]);
      }
    }

    const hybrid::HybridConfig cfg = small_hybrid_config();
    const auto off = run_subset(c, cfg, subset, false);
    const auto on = run_subset(c, cfg, subset, true);

    ASSERT_EQ(off.fault_state.size(), on.fault_state.size());
    for (std::size_t i = 0; i < off.fault_state.size(); ++i) {
      const bool det_off = off.fault_state[i] == session::FaultStatus::kDetected;
      const bool det_on = on.fault_state[i] == session::FaultStatus::kDetected;
      const bool unt_off =
          off.fault_state[i] == session::FaultStatus::kUntestable;
      const bool unt_on = on.fault_state[i] == session::FaultStatus::kUntestable;
      // A detected fault is testable; an untestable claim is a proof.
      EXPECT_FALSE(det_off && unt_on) << "fault " << i;
      EXPECT_FALSE(det_on && unt_off) << "fault " << i;
    }
    if (off.counters.aborted_faults == 0 && on.counters.aborted_faults == 0) {
      EXPECT_EQ(off.fault_state, on.fault_state);
    }
  }
}

}  // namespace
}  // namespace gatpg
