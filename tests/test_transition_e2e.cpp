// Transition-fault ATPG end-to-end differential suite: on every registry
// circuit, a backtrack-bounded hybrid run over the transition universe must
// detect faults and be bit-identical — tests, segments, fault statuses,
// every counter, all three digests, and the per-target observer stream —
// across fault-sim thread count and targeting lane count (the fault
// simulator itself is checked against the full-sweep oracle in
// test_faultsim_diff.cpp).  Also covers mid-pass kill-and-resume, the
// snapshot fault-model identity check, worker-count invariance of sharded
// transition jobs, and the daemon's fault_model= key.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "fault/faultlist.h"
#include "gen/registry.h"
#include "helpers/differential.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/depth.h"
#include "serialize/archive.h"
#include "service/daemon.h"
#include "service/shard.h"
#include "session/fault_manager.h"
#include "session/observer.h"
#include "session/session.h"
#include "util/rng.h"

namespace gatpg {
namespace {

using test::capped_faults;
using test::expect_identical;
using test::expect_trace_equal;
using test::RunOutput;
using test::run_once;

/// Two-pass GA+deterministic schedule bounded by backtracks and generations
/// alone — every run is a pure function of (circuit, fault list, seed), so
/// execution-shape variants are comparable bit for bit.
hybrid::HybridConfig transition_config() {
  hybrid::HybridConfig cfg;
  cfg.fault_model = fault::FaultUniverse::kTransition;
  session::PassConfig ga;
  ga.mode = session::JustifyMode::kGenetic;
  ga.time_limit_s = 0.0;
  ga.max_backtracks = 200;
  ga.ga_population = 64;
  ga.ga_generations = 2;
  ga.seq_len_multiplier = 2.0;
  session::PassConfig det;
  det.mode = session::JustifyMode::kDeterministic;
  det.time_limit_s = 0.0;
  det.max_backtracks = 200;
  cfg.schedule.passes = {ga, det};
  cfg.max_solutions_per_fault = 4;
  cfg.seed = 7;
  cfg.parallel.threads = 1;
  cfg.state_store.enabled = true;
  cfg.target_parallel.lanes = 1;
  return cfg;
}

fault::FaultList capped_transition_faults(const netlist::Circuit& c,
                                          std::size_t cap) {
  return capped_faults(c, cap, fault::FaultUniverse::kTransition);
}

// ---------------------------------------------------------------------------
// The central differential: one reference run per registry circuit, compared
// against every execution-shape variant.

TEST(TransitionAtpg, DetectsAndInvariantAcrossExecutionShapes) {
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE("circuit " + name);
    const netlist::Circuit c = gen::make_circuit(name);
    const fault::FaultList faults = capped_transition_faults(c, 24);
    const RunOutput ref = run_once(c, faults, transition_config());

    // The generator must actually produce two-frame tests on every circuit,
    // and every targeted fault must report a transition model.
    EXPECT_GT(ref.result.detected(), 0u) << "no transition fault detected";
    ASSERT_FALSE(ref.trace.empty());
    for (const session::TargetEffort& e : ref.trace) {
      EXPECT_TRUE(fault::is_transition(e.model));
    }

    {
      SCOPED_TRACE("faultsim threads 4");
      hybrid::HybridConfig cfg = transition_config();
      cfg.parallel.threads = 4;
      const RunOutput got = run_once(c, faults, cfg);
      expect_identical(ref.result, got.result);
      expect_trace_equal(ref.trace, got.trace);
    }
    {
      SCOPED_TRACE("targeting lanes 4");
      hybrid::HybridConfig cfg = transition_config();
      cfg.target_parallel.lanes = 4;
      const RunOutput got = run_once(c, faults, cfg);
      expect_identical(ref.result, got.result);
      expect_trace_equal(ref.trace, got.trace);
    }
  }
}

// ---------------------------------------------------------------------------
// Kill-and-resume: a mid-run snapshot of a transition session must resume to
// the same bits as the uninterrupted run.

TEST(TransitionKillResume, MidPassSnapshotResumesBitIdentical) {
  util::Rng pick(0xFADE);
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE("circuit " + name);
    const netlist::Circuit c = gen::make_circuit(name);
    const fault::FaultList faults = capped_transition_faults(c, 24);
    const hybrid::HybridConfig cfg = transition_config();
    const RunOutput reference = run_once(c, faults, cfg);

    const auto kill_and_resume = [&](long stop) -> session::SessionResult {
      const std::string snap = testing::TempDir() + "tr_" + name + ".snap";
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

      session::Session resumed(c, faults, cfg.session_config());
      util::Rng rng(cfg.seed);
      hybrid::HybridEngine engine(c, cfg, netlist::sequential_depth(c), rng);
      resumed.resume(snap, engine);
      const session::SessionResult finished =
          resumed.run(engine, cfg.schedule);
      std::remove(snap.c_str());
      return finished;
    };

    {
      SCOPED_TRACE("stop tick 1");
      expect_identical(reference.result, kill_and_resume(1));
    }
    {
      const long stop = 2 + static_cast<long>(pick.below(6));
      SCOPED_TRACE("stop tick " + std::to_string(stop));
      expect_identical(reference.result, kill_and_resume(stop));
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot model identity: a transition snapshot never resumes a stuck-at
// session (and vice versa), with a targeted error naming both universes.

TEST(TransitionSnapshot, RejectsFaultModelMismatch) {
  const netlist::Circuit c = gen::make_circuit("s27");
  const fault::FaultList tr_faults =
      fault::collapse(c, fault::FaultUniverse::kTransition);
  const hybrid::HybridConfig cfg = transition_config();
  const std::string snap = testing::TempDir() + "tr_model_mismatch.snap";
  std::remove(snap.c_str());
  {
    session::SessionConfig scfg = cfg.session_config();
    scfg.checkpoint.path = snap;
    scfg.checkpoint.stop_after_ticks = 1;
    session::Session s(c, tr_faults, scfg);
    util::Rng rng(cfg.seed);
    hybrid::HybridEngine engine(c, cfg, netlist::sequential_depth(c), rng);
    s.run(engine, cfg.schedule);
  }
  std::FILE* f = std::fopen(snap.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "stop tick never fired; no snapshot to test";
  std::fclose(f);

  // A stuck-at session refuses the transition snapshot before it even
  // compares fault lists.
  hybrid::HybridConfig sa_cfg = transition_config();
  sa_cfg.fault_model = fault::FaultUniverse::kStuckAt;
  session::Session sa(c, fault::collapse(c), sa_cfg.session_config());
  util::Rng sa_rng(sa_cfg.seed);
  hybrid::HybridEngine sa_engine(c, sa_cfg, netlist::sequential_depth(c),
                                 sa_rng);
  try {
    sa.resume(snap, sa_engine);
    FAIL() << "mixed-model resume must throw";
  } catch (const serialize::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("fault model"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("transition"), std::string::npos)
        << e.what();
  }

  // Sanity: the same snapshot resumes fine under the matching model.
  session::Session ok(c, tr_faults, cfg.session_config());
  util::Rng ok_rng(cfg.seed);
  hybrid::HybridEngine ok_engine(c, cfg, netlist::sequential_depth(c),
                                 ok_rng);
  ok.resume(snap, ok_engine);
  std::remove(snap.c_str());
}

// ---------------------------------------------------------------------------
// Sharded transition jobs: the merged result is invariant in worker count.

TEST(TransitionSharded, WorkerCountNeverChangesTheMergedResult) {
  const netlist::Circuit c = gen::make_circuit("s27");
  const fault::FaultList full =
      fault::collapse(c, fault::FaultUniverse::kTransition);

  std::vector<service::ShardedResult> runs;
  for (const unsigned workers : {1u, 2u, 3u}) {
    service::ShardJobConfig job;
    job.shards = 3;
    job.workers = workers;
    job.hybrid = transition_config();
    for (auto& pass : job.hybrid.schedule.passes) pass.time_limit_s = 1000.0;
    runs.push_back(service::run_sharded(c, full, job));
  }
  const session::SessionResult& ref = runs[0].merged;
  EXPECT_GT(ref.detected(), 0u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("workers variant " + std::to_string(i));
    const session::SessionResult& got = runs[i].merged;
    EXPECT_EQ(got.digests.faults, ref.digests.faults);
    EXPECT_EQ(got.digests.tests, ref.digests.tests);
    EXPECT_EQ(got.digests.store, ref.digests.store);
    EXPECT_EQ(got.fault_state, ref.fault_state);
    EXPECT_EQ(got.test_set, ref.test_set);
    EXPECT_EQ(got.segments, ref.segments);
  }
}

// ---------------------------------------------------------------------------
// Daemon protocol: the fault_model= submit key.

std::string drain(std::FILE* f) {
  std::fflush(f);
  const long size = std::ftell(f);
  std::rewind(f);
  std::string out(static_cast<std::size_t>(size), '\0');
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  out.resize(got);
  return out;
}

TEST(TransitionDaemon, SubmitAcceptsFaultModelKey) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  service::Daemon daemon({}, in, out);
  EXPECT_TRUE(daemon.handle_request(
      "submit job=tf1 circuit=s27 fault_model=transition shards=2 workers=2 "
      "time_scale=0.005 pass_budget=0.5 seed=3"));
  EXPECT_TRUE(daemon.handle_request("submit circuit=s27 fault_model=warp"));

  const std::string log = drain(out);
  EXPECT_NE(log.find("\"event\":\"accepted\""), std::string::npos);
  EXPECT_NE(log.find("\"fault_model\":\"transition\""), std::string::npos);
  EXPECT_NE(log.find("\"event\":\"done\""), std::string::npos);
  EXPECT_NE(log.find("unknown fault_model: warp"), std::string::npos);
  std::fclose(in);
  std::fclose(out);
}

}  // namespace
}  // namespace gatpg
