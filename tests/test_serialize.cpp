// Serialization-layer tests: archive primitive round-trips and validation,
// per-component snapshot round-trips (Rng, FaultManager, TestSetBuilder,
// StateStore), the counter records' field lists (arithmetic, equality and
// snapshot order), resume identity checks, and the kill-and-resume differential
// suite — a run checkpointed mid-pass at randomized points and resumed must
// finish bit-identical to the uninterrupted run, at worker-thread counts
// 1 and 4.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/faultlist.h"
#include "gen/registry.h"
#include "helpers/differential.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/depth.h"
#include "serialize/archive.h"
#include "session/fault_manager.h"
#include "session/session.h"
#include "session/test_set_builder.h"
#include "state/state_store.h"
#include "tpg/alternating.h"
#include "util/fields.h"
#include "util/rng.h"

namespace gatpg {
namespace {

using test::capped_faults;
using test::expect_identical;

/// `Record` with its fields, in list order, set to first, first + 1, ...
template <typename Record>
Record numbered(long first) {
  Record r;
  util::for_each_field([&](auto, auto& v) { v = first++; }, r);
  return r;
}

/// `r` with its k-th listed field incremented.
template <typename Record>
Record with_field_bumped(Record r, std::size_t k) {
  util::for_each_field([&](auto, auto& v) { if (k-- == 0) ++v; }, r);
  return r;
}

/// Every counter field is one 64-bit word.
template <typename Record>
constexpr std::size_t kWords = sizeof(Record) / sizeof(std::uint64_t);

// ---------------------------------------------------------------------------
// Archive primitives

TEST(Archive, PrimitiveRoundTrip) {
  serialize::Writer w;
  w.begin_section("PRIM");
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.boolean(false);
  const std::uint8_t blob[] = {1, 2, 3, 4, 5};
  w.bytes(blob, sizeof blob);
  w.str("justify me");
  w.str("");
  w.end_section();

  serialize::Reader r(w.finish());
  r.enter_section("PRIM");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  const std::vector<std::uint8_t> got = r.bytes();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(r.str(), "justify me");
  EXPECT_EQ(r.str(), "");
  r.leave_section();
  EXPECT_TRUE(r.at_end());
}

TEST(Archive, SectionsAreSelfDelimiting) {
  serialize::Writer w;
  w.begin_section("AAAA");
  w.u64(1);
  w.end_section();
  w.begin_section("BBBB");
  w.str("second");
  w.end_section();

  serialize::Reader r(w.finish());
  r.enter_section("AAAA");
  EXPECT_EQ(r.u64(), 1u);
  r.leave_section();
  r.enter_section("BBBB");
  EXPECT_EQ(r.str(), "second");
  r.leave_section();
  EXPECT_TRUE(r.at_end());
}

TEST(Archive, WrongSectionTagThrows) {
  serialize::Writer w;
  w.begin_section("GOOD");
  w.u32(7);
  w.end_section();
  serialize::Reader r(w.finish());
  EXPECT_THROW(r.enter_section("EVIL"), serialize::SnapshotError);
}

TEST(Archive, NestedSectionThrows) {
  serialize::Writer w;
  w.begin_section("OUTR");
  EXPECT_THROW(w.begin_section("INNR"), serialize::SnapshotError);
}

TEST(Archive, HeaderAndDigestValidation) {
  serialize::Writer w;
  w.begin_section("DATA");
  w.u64(0x1122334455667788ULL);
  w.end_section();
  const std::vector<std::uint8_t> good = w.finish();
  EXPECT_NO_THROW(serialize::Reader{good});

  // Truncated buffer.
  std::vector<std::uint8_t> cut(good.begin(), good.end() - 1);
  EXPECT_THROW(serialize::Reader{cut}, serialize::SnapshotError);

  // Bad magic (byte 0), bad version (byte 8), bad sentinel (byte 12),
  // corrupted payload byte (header is 16 bytes; payload follows).
  for (const std::size_t at : {std::size_t{0}, std::size_t{8},
                               std::size_t{12}, std::size_t{16}}) {
    std::vector<std::uint8_t> bad = good;
    bad[at] ^= 0x40;
    EXPECT_THROW(serialize::Reader{bad}, serialize::SnapshotError)
        << "corruption at byte " << at << " was not rejected";
  }

  // Archives from earlier format versions fail at the header, with the
  // version named (version 2 still carried the fault-sim group width in
  // IDNT, version 3 the engine choice and version 4 the hybrid engine's
  // pool ledger and the store caps, which this build would otherwise
  // mis-decode).
  for (const std::uint8_t old :
       {std::uint8_t{2}, std::uint8_t{3}, std::uint8_t{4}}) {
    std::vector<std::uint8_t> stale = good;
    stale[8] = old;
    stale[9] = stale[10] = stale[11] = 0;
    const std::string name = "version " + std::to_string(old);
    try {
      serialize::Reader{stale};
      ADD_FAILURE() << "a " << name << " archive was not rejected";
    } catch (const serialize::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(Archive, HugeLengthIsRejectedNotWrapped) {
  // A length field near SIZE_MAX must fail the bounds check, not wrap
  // pos_ + n and slip past it into invalid iterator arithmetic.
  serialize::Writer w;
  w.begin_section("EVIL");
  w.u64(~0ULL);  // claims SIZE_MAX payload bytes
  w.end_section();
  serialize::Reader r(w.finish());
  r.enter_section("EVIL");
  EXPECT_THROW(r.bytes(), serialize::SnapshotError);
}

TEST(Archive, CountRejectsImplausibleElementCounts) {
  serialize::Writer w;
  w.begin_section("CNTS");
  w.u64(3);  // plausible: three 8-byte elements follow
  for (int i = 0; i < 3; ++i) w.u64(static_cast<std::uint64_t>(i));
  w.u64(1u << 20);  // implausible: nothing follows
  w.end_section();
  serialize::Reader r(w.finish());
  r.enter_section("CNTS");
  EXPECT_EQ(r.count(8), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(r.u64(), static_cast<std::uint64_t>(i));
  EXPECT_THROW(r.count(8), serialize::SnapshotError);
}

TEST(Archive, FileRoundTripAndMissingFile) {
  const std::string path = testing::TempDir() + "archive_roundtrip.snap";
  serialize::Writer w;
  w.begin_section("FILE");
  w.str("on disk");
  w.end_section();
  w.write_file(path);

  serialize::Reader r = serialize::Reader::from_file(path);
  r.enter_section("FILE");
  EXPECT_EQ(r.str(), "on disk");
  r.leave_section();
  std::remove(path.c_str());

  EXPECT_THROW(serialize::Reader::from_file(testing::TempDir() +
                                            "does_not_exist.snap"),
               serialize::SnapshotError);
}

// ---------------------------------------------------------------------------
// Rng state capture

TEST(RngSnapshot, StateWordsContinueTheStream) {
  util::Rng a(123);
  for (int i = 0; i < 5; ++i) a();
  const auto words = a.state_words();
  std::vector<std::uint64_t> expect;
  for (int i = 0; i < 16; ++i) expect.push_back(a());

  util::Rng b(999);  // seed is irrelevant once the state is restored
  b.set_state_words(words);
  for (std::uint64_t v : expect) EXPECT_EQ(b(), v);
}

// ---------------------------------------------------------------------------
// Component round trips

fault::FaultList s27_faults() {
  static const netlist::Circuit c = gen::make_circuit("s27");
  return fault::collapse(c);
}

TEST(FaultManagerSnapshot, RoundTripRestoresEverything) {
  session::FaultManager fm(s27_faults());
  fm.begin_pass();
  fm.mark_detected(0);
  fm.mark_detected(7);
  fm.mark_untestable(3);
  fm.mark_aborted(5);
  fm.set_pass_cursor(11);

  serialize::Writer w;
  fm.save(w);
  session::FaultManager loaded(s27_faults());
  serialize::Reader r(w.finish());
  loaded.load(r);
  EXPECT_TRUE(r.at_end());

  EXPECT_EQ(loaded.digest(), fm.digest());
  EXPECT_EQ(loaded.status(), fm.status());
  EXPECT_EQ(loaded.detected_count(), 2u);
  EXPECT_EQ(loaded.untestable_count(), 1u);
  EXPECT_TRUE(loaded.aborted_this_pass(5));
  EXPECT_FALSE(loaded.aborted_this_pass(4));
  EXPECT_EQ(loaded.aborted_total(), 1);
  EXPECT_EQ(loaded.pass_cursor(), 11u);
}

TEST(FaultManagerSnapshot, DigestTracksContent) {
  session::FaultManager a(s27_faults());
  session::FaultManager b(s27_faults());
  EXPECT_EQ(a.digest(), b.digest());
  b.mark_detected(9);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(TestSetBuilderSnapshot, RoundTripPreservesInvariant) {
  using sim::V3;
  session::TestSetBuilder tb;
  tb.commit({{V3::k0, V3::k1}, {V3::kX, V3::k1}});
  tb.commit({{V3::k1, V3::k1}});
  tb.commit({});  // empty segment keeps its boundary

  serialize::Writer w;
  tb.save(w);
  session::TestSetBuilder loaded;
  serialize::Reader r(w.finish());
  loaded.load(r);
  EXPECT_TRUE(r.at_end());

  EXPECT_EQ(loaded.digest(), tb.digest());
  EXPECT_EQ(loaded.test_set(), tb.test_set());
  EXPECT_EQ(loaded.segments(), tb.segments());
  // Flat set == in-order concatenation of the segments, by construction.
  sim::Sequence concat;
  for (const sim::Sequence& seg : loaded.segments()) {
    concat.insert(concat.end(), seg.begin(), seg.end());
  }
  EXPECT_EQ(loaded.test_set(), concat);
}

TEST(StateStoreSnapshot, RoundTripAndConfigGuard) {
  using sim::V3;
  const netlist::Circuit c = gen::make_circuit("s27");
  state::StateStoreConfig cfg;
  cfg.enabled = true;
  state::StateStore store(c, cfg);

  sim::State3 cube(c.flip_flops().size(), V3::kX);
  cube[0] = V3::k1;
  store.record_unjustifiable(cube);
  sim::State3 cube2(c.flip_flops().size(), V3::kX);
  cube2[0] = V3::k0;
  sim::Sequence seq(2, sim::Vector3(c.primary_inputs().size(), V3::k0));
  store.record_justified(cube2, seq);
  store.cache_forward(4, seq, cube2);

  serialize::Writer w;
  store.save(w);
  const std::vector<std::uint8_t> archive = w.finish();

  state::StateStore loaded(c, cfg);
  serialize::Reader r(archive);
  loaded.load(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(loaded.digest(), store.digest());
  EXPECT_EQ(loaded.unjustifiable_size(), 1u);
  EXPECT_EQ(loaded.justified_size(), 1u);
  ASSERT_NE(loaded.cached_forward(4), nullptr);
  EXPECT_EQ(loaded.cached_forward(4)->vectors, seq);

  // A disabled store cannot take an enabled store's content; load() must
  // reject the archive rather than diverge.
  state::StateStore mismatched(c, state::StateStoreConfig{});
  serialize::Reader r2(archive);
  EXPECT_THROW(mismatched.load(r2), serialize::SnapshotError);
}

TEST(StateStoreSnapshot, ClearAfterPartialLoadRestoresTheColdState) {
  using sim::V3;
  const netlist::Circuit c = gen::make_circuit("s27");
  state::StateStoreConfig cfg;
  cfg.enabled = true;

  // Forge a structurally valid archive (good header and digest) that passes
  // the enabled-flag check but carries an invalid ternary byte, so load()
  // throws only after it has started repopulating the caches.
  serialize::Writer w;
  w.begin_section("STOR");
  w.boolean(cfg.enabled);
  w.u64(1);   // one justified entry
  w.u64(1);   // cube of one literal
  w.u8(0);    // a valid ternary value
  w.u64(1);   // sequence of one vector
  w.u64(1);   // vector of one bit
  w.u8(99);   // invalid ternary value -> throws mid-load
  w.end_section();

  state::StateStore store(c, cfg);
  sim::State3 cube(c.flip_flops().size(), V3::kX);
  cube[0] = V3::k1;
  store.record_unjustifiable(cube);
  ASSERT_NE(store.digest(), state::StateStore(c, cfg).digest());

  serialize::Reader r(w.finish());
  EXPECT_THROW(store.load(r), serialize::SnapshotError);
  // The failed load left the store in a half-populated state; clear() must
  // return it to exactly the freshly-constructed (cold) state.
  store.clear();
  EXPECT_EQ(store.digest(), state::StateStore(c, cfg).digest());
  EXPECT_EQ(store.justified_size(), 0u);
  EXPECT_EQ(store.unjustifiable_size(), 0u);
}

TEST(StateStoreSnapshot, DropUnverifiedKeepsReverifiableKnowledge) {
  using sim::V3;
  const netlist::Circuit c = gen::make_circuit("s27");
  state::StateStoreConfig cfg;
  cfg.enabled = true;
  state::StateStore store(c, cfg);

  sim::State3 cube(c.flip_flops().size(), V3::kX);
  cube[0] = V3::k1;
  store.record_unjustifiable(cube);
  sim::State3 cube2(c.flip_flops().size(), V3::kX);
  cube2[0] = V3::k0;
  sim::Sequence seq(1, sim::Vector3(c.primary_inputs().size(), V3::k1));
  store.record_justified(cube2, seq);
  store.cache_forward(0, seq, cube2);

  store.drop_unverified();
  // Netlist-specific proofs and forward solutions are gone; the justified
  // cache (re-verified on every hit) survives.
  EXPECT_EQ(store.unjustifiable_size(), 0u);
  EXPECT_EQ(store.cached_forward(0), nullptr);
  EXPECT_EQ(store.justified_size(), 1u);
}

TEST(StateStoreSnapshot, LoadRejectsCubesAndVectorsOfTheWrongWidth) {
  state::StateStoreConfig cfg;
  cfg.enabled = true;
  const netlist::Circuit c = gen::make_circuit("g382");  // 4 PIs, 18 FFs
  state::StateStore store(c, cfg);
  sim::State3 cube(c.flip_flops().size(), sim::V3::kX);
  cube[0] = sim::V3::k1;
  store.record_justified(cube, {sim::Vector3(c.primary_inputs().size())});
  serialize::Writer w;
  store.save(w);
  const std::vector<std::uint8_t> archive = w.finish();

  const netlist::Circuit same = gen::make_circuit("g400");  // 4 PIs, 18 FFs
  state::StateStore loaded(same, cfg);
  serialize::Reader r(archive);
  loaded.load(r);
  EXPECT_EQ(loaded.digest(), store.digest());
  // g1196 has 13 PIs (vector width), g298 has 14 FFs (cube width).
  for (const char* name : {"g1196", "g298"}) {
    const netlist::Circuit other_circuit = gen::make_circuit(name);
    state::StateStore other(other_circuit, cfg);
    serialize::Reader r2(archive);
    EXPECT_THROW(other.load(r2), serialize::SnapshotError) << name;
  }
}

TEST(StateStoreSnapshot, StatsRoundTripAndDigestCoverEveryField) {
  const netlist::Circuit c = gen::make_circuit("s27");
  state::StateStoreConfig cfg;
  cfg.enabled = true;
  const auto stats = numbered<state::StateStoreStats>(1);
  state::StateStore store(c, cfg);
  store.apply_stats_delta(stats);
  serialize::Writer w;
  store.save(w);
  state::StateStore loaded(c, cfg);
  serialize::Reader r(w.finish());
  loaded.load(r);
  test::expect_counters_equal(loaded.stats(), stats);
  EXPECT_EQ(loaded.digest(), store.digest());
  for (std::size_t k = 0; k < kWords<state::StateStoreStats>; ++k) {
    state::StateStore bumped(c, cfg);
    bumped.apply_stats_delta(with_field_bumped(stats, k));
    EXPECT_NE(bumped.digest(), store.digest()) << "field " << k;
  }
}

// ---------------------------------------------------------------------------
// Counter records: the field list drives arithmetic, equality and the
// snapshot words of EngineCounters (CNTR), StateStoreStats (STOR) and
// SimStats (SIMS).

template <typename Record>
class CounterRecordSnapshot : public ::testing::Test {};
using CounterRecords =
    ::testing::Types<session::EngineCounters, state::StateStoreStats,
                     fault::SimStats>;
TYPED_TEST_SUITE(CounterRecordSnapshot, CounterRecords);

TYPED_TEST(CounterRecordSnapshot, ArithmeticAndEqualityCoverEveryField) {
  const auto a = numbered<TypeParam>(1);
  const auto b = numbered<TypeParam>(1000);
  TypeParam sum = a;
  sum += b;
  util::for_each_field(
      [](const char* name, auto s, auto x, auto y) {
        EXPECT_EQ(s, x + y) << name;
      },
      sum, a, b);
  if constexpr (requires { sum -= b; }) {
    sum -= b;
    test::expect_counters_equal(sum, a);
  }
  for (std::size_t k = 0; k < kWords<TypeParam>; ++k) {
    EXPECT_NE(with_field_bumped(a, k), a) << "field " << k;
  }
}

TYPED_TEST(CounterRecordSnapshot, RoundTripsInDeclarationOrder) {
  const auto rec = numbered<TypeParam>(1);
  serialize::Writer w;
  w.begin_section("CNTR");
  serialize::write_fields(w, rec);
  w.end_section();
  serialize::Reader r(w.finish());
  r.enter_section("CNTR");
  serialize::Reader raw = r;
  TypeParam back;
  serialize::read_fields(r, back);
  r.leave_section();
  test::expect_counters_equal(back, rec);

  // The k-th listed field is the k-th member in memory (so, with the sizeof
  // guard, the list is the declaration order) and the k-th snapshot word.
  std::size_t k = 0;
  util::for_each_field(
      [&](const char* name, const auto& v) {
        EXPECT_EQ(reinterpret_cast<const char*>(&v),
                  reinterpret_cast<const char*>(&rec) + 8 * k)
            << name;
        EXPECT_EQ(raw.u64(), ++k) << name;
      },
      rec);
  EXPECT_EQ(k, kWords<TypeParam>);
}

// ---------------------------------------------------------------------------
// Session checkpoint / resume

/// A deterministic two-pass GA+deterministic schedule whose limits are
/// backtrack/generation-bounded, never wall-clock-bounded, so every run is a
/// pure function of (circuit, fault list, seed) — the property the
/// differential suite depends on.
hybrid::HybridConfig cheap_config(unsigned threads) {
  hybrid::HybridConfig cfg;
  session::PassConfig ga;
  ga.mode = session::JustifyMode::kGenetic;
  ga.time_limit_s = 1000.0;
  ga.max_backtracks = 200;
  ga.ga_population = 64;
  ga.ga_generations = 2;
  ga.seq_len_multiplier = 2.0;
  session::PassConfig det;
  det.mode = session::JustifyMode::kDeterministic;
  det.time_limit_s = 1000.0;
  det.max_backtracks = 200;
  cfg.schedule.passes = {ga, det};
  cfg.max_solutions_per_fault = 4;
  cfg.seed = 7;
  cfg.parallel.threads = threads;
  cfg.state_store.enabled = true;
  return cfg;
}

session::SessionResult run_uninterrupted(const netlist::Circuit& c,
                                         const fault::FaultList& faults,
                                         const hybrid::HybridConfig& cfg) {
  session::Session s(c, faults, cfg.session_config());
  util::Rng rng(cfg.seed);
  hybrid::HybridEngine engine(c, cfg, netlist::sequential_depth(c), rng);
  return s.run(engine, cfg.schedule);
}

TEST(SessionSnapshot, ResumeRejectsMismatches) {
  const netlist::Circuit s27 = gen::make_circuit("s27");
  const fault::FaultList faults = fault::collapse(s27);
  const hybrid::HybridConfig cfg = cheap_config(1);
  const std::string snap = testing::TempDir() + "mismatch.snap";
  std::remove(snap.c_str());

  {
    session::SessionConfig scfg = cfg.session_config();
    scfg.checkpoint.path = snap;
    scfg.checkpoint.stop_after_ticks = 3;
    session::Session s(s27, faults, scfg);
    util::Rng rng(cfg.seed);
    hybrid::HybridEngine engine(s27, cfg, netlist::sequential_depth(s27), rng);
    s.run(engine, cfg.schedule);
  }
  ASSERT_NE(std::fopen(snap.c_str(), "rb"), nullptr);

  // Wrong circuit.
  {
    const netlist::Circuit other = gen::make_circuit("g344");
    session::Session s(other, cfg.session_config());
    util::Rng rng(cfg.seed);
    hybrid::HybridEngine engine(other, cfg, netlist::sequential_depth(other),
                                rng);
    EXPECT_THROW(s.resume(snap, engine), serialize::SnapshotError);
  }
  // Wrong fault-sim engine shape.
  {
    hybrid::HybridConfig shape = cfg;
    shape.faultsim.window += 1;
    session::Session s(s27, faults, shape.session_config());
    util::Rng rng(cfg.seed);
    hybrid::HybridEngine engine(s27, shape, netlist::sequential_depth(s27),
                                rng);
    EXPECT_THROW(s.resume(snap, engine), serialize::SnapshotError);
  }
  // Not a freshly constructed session.
  {
    session::Session s(s27, faults, cfg.session_config());
    util::Rng rng(cfg.seed);
    hybrid::HybridEngine engine(s27, cfg, netlist::sequential_depth(s27), rng);
    s.run(engine, cfg.schedule);
    EXPECT_THROW(s.resume(snap, engine), serialize::SnapshotError);
  }
  std::remove(snap.c_str());
}

TEST(SessionSnapshot, CheckpointOutsideRunIsNotResumable) {
  // A snapshot taken with no engine running carries no engine state; resume
  // must refuse it instead of continuing with an unprimed engine.
  const netlist::Circuit s27 = gen::make_circuit("s27");
  const fault::FaultList faults = fault::collapse(s27);
  const hybrid::HybridConfig cfg = cheap_config(1);
  const std::string snap = testing::TempDir() + "postrun.snap";

  session::Session s(s27, faults, cfg.session_config());
  s.checkpoint(snap);

  session::Session fresh(s27, faults, cfg.session_config());
  util::Rng rng(cfg.seed);
  hybrid::HybridEngine engine(s27, cfg, netlist::sequential_depth(s27), rng);
  EXPECT_THROW(fresh.resume(snap, engine), serialize::SnapshotError);
  std::remove(snap.c_str());
}

// The kill-and-resume differential suite: on every registry circuit, stop a
// run at a randomized mid-pass tick (writing one snapshot), resume it in a
// fresh session, and require the finished result to be bit-identical to the
// uninterrupted run — the tentpole property of the snapshot layer.
class KillResume : public ::testing::TestWithParam<unsigned> {};

TEST_P(KillResume, MidPassCheckpointResumesBitIdentical) {
  const unsigned threads = GetParam();
  util::Rng pick(0xC0FFEE + threads);  // randomized but reproducible stops
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE("circuit " + name);
    const netlist::Circuit c = gen::make_circuit(name);
    // Cap the population on the big circuits to keep the sweep bounded; the
    // differential is valid for any fixed fault list.
    const fault::FaultList faults = capped_faults(c, 40);
    ASSERT_GE(faults.size(), 12u);
    const hybrid::HybridConfig cfg = cheap_config(threads);

    const session::SessionResult reference = run_uninterrupted(c, faults, cfg);

    // Runs with stop_after_ticks = stop, resuming from the snapshot if the
    // stop fired (fault dropping can finish a run in very few ticks, so a
    // deep stop may never trigger — the run then completed uninterrupted
    // and must equal the reference directly).
    const auto kill_and_resume =
        [&](long stop) -> session::SessionResult {
      const std::string snap = testing::TempDir() + "kr_" + name + "_t" +
                               std::to_string(threads) + ".snap";
      std::remove(snap.c_str());
      session::SessionResult partial;
      {
        session::SessionConfig scfg = cfg.session_config();
        scfg.checkpoint.path = snap;
        scfg.checkpoint.stop_after_ticks = stop;
        session::Session s(c, faults, scfg);
        util::Rng rng(cfg.seed);
        hybrid::HybridEngine engine(c, cfg, netlist::sequential_depth(c),
                                    rng);
        partial = s.run(engine, cfg.schedule);
      }
      std::FILE* f = std::fopen(snap.c_str(), "rb");
      if (!f) return partial;  // stop never fired: completed uninterrupted
      std::fclose(f);
      EXPECT_LT(partial.passes.size(), cfg.schedule.passes.size());

      session::Session resumed(c, faults, cfg.session_config());
      util::Rng rng(cfg.seed);  // overwritten by the restored engine state
      hybrid::HybridEngine engine(c, cfg, netlist::sequential_depth(c), rng);
      resumed.resume(snap, engine);
      const session::SessionResult finished =
          resumed.run(engine, cfg.schedule);
      std::remove(snap.c_str());
      return finished;
    };

    {
      // The first tick always fires, so every circuit exercises a real
      // mid-pass resume at least once.
      SCOPED_TRACE("stop tick 1");
      expect_identical(reference, kill_and_resume(1));
    }
    {
      const long stop = 2 + static_cast<long>(pick.below(6));
      SCOPED_TRACE("stop tick " + std::to_string(stop));
      expect_identical(reference, kill_and_resume(stop));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KillResume, ::testing::Values(1u, 4u));

// The alternating hybrid's snapshot hooks (phase counters, the GA engine's
// streams, the deterministic engine's cursor, X-fill RNG and pool tallies):
// g386 stopped after a GA round or a deterministic target and resumed into
// a fresh session and engine finishes bit-identical to the uninterrupted
// run.  The config binds no wall clock, so both runs are pure functions of
// it, and its tiny GA leaves testable faults to the deterministic phase, so
// X-fill draws happen both before and after the stops.
class AlternatingKillResume : public ::testing::TestWithParam<unsigned> {};

TEST_P(AlternatingKillResume, MidRunCheckpointResumesBitIdentical) {
  const netlist::Circuit c = gen::make_circuit("g386");
  tpg::AlternatingConfig cfg;
  cfg.population = 8;
  cfg.generations = 1;
  cfg.sequence_length = 2;
  cfg.fault_sample = 8;
  cfg.switch_after = 1;
  cfg.time_limit_s = 1000.0;
  cfg.det_limits.time_limit_s = 1000.0;
  cfg.det_limits.max_backtracks = 300;
  cfg.det_failures_to_stop = 4;
  cfg.seed = 9;
  cfg.faultsim.parallel.threads = GetParam();
  const session::PassSchedule schedule =
      session::PassSchedule::single(cfg.time_limit_s);
  session::SessionConfig scfg;
  scfg.faultsim = cfg.faultsim;

  session::SessionResult reference;
  {
    session::Session s(c, scfg);
    tpg::AlternatingEngine engine(c, cfg);
    reference = s.run(engine, schedule);
  }
  ASSERT_GT(reference.counters.targeted, 0);

  // Tick 1 is the first GA round; ticks 400 and 401 fall in the
  // alternation, one after a GA round and one after a deterministic target.
  for (const long stop : {1L, 400L, 401L}) {
    SCOPED_TRACE("stop tick " + std::to_string(stop));
    const std::string snap = testing::TempDir() + "alt_kr_t" +
                             std::to_string(GetParam()) + ".snap";
    std::remove(snap.c_str());
    {
      session::SessionConfig stopping = scfg;
      stopping.checkpoint.path = snap;
      stopping.checkpoint.stop_after_ticks = stop;
      session::Session s(c, stopping);
      tpg::AlternatingEngine engine(c, cfg);
      s.run(engine, schedule);
    }
    std::FILE* f = std::fopen(snap.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "the stop never fired";
    std::fclose(f);

    session::Session resumed(c, scfg);
    tpg::AlternatingEngine engine(c, cfg);
    resumed.resume(snap, engine);
    expect_identical(reference, resumed.run(engine, schedule));
    std::remove(snap.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, AlternatingKillResume,
                         ::testing::Values(1u, 4u));

}  // namespace
}  // namespace gatpg
