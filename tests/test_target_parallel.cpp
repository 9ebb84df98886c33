// Speculative parallel fault targeting differential suite (DESIGN.md §4j):
// on every registry circuit, a backtrack-bounded hybrid run at 2 and 4
// targeting lanes must be bit-identical to the serial run — tests, segments,
// fault statuses, every engine and store counter, all three digests, and the
// exact on_target_end observer sequence — with the state store on and off.
// Also covers mid-pass kill-and-resume at 4 lanes and across lane counts
// (1 -> 4 and 4 -> 1), speculation-ledger consistency, the epoch rule (only
// shared-state writes end an epoch), and the wall-clock-pass opt-out
// (deadline passes stay serial).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fault/faultlist.h"
#include "gen/registry.h"
#include "helpers/differential.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/depth.h"
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

/// A two-pass GA+deterministic schedule bounded by backtracks and
/// generations alone — no wall-clock limits anywhere, which is exactly the
/// shape the speculative path accepts.  Every run is a pure function of
/// (circuit, fault list, seed), so serial and parallel runs are comparable
/// bit for bit.
hybrid::HybridConfig lane_config(unsigned lanes, bool store) {
  hybrid::HybridConfig cfg;
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
  cfg.state_store.enabled = store;
  cfg.target_parallel.lanes = lanes;
  return cfg;
}

// ---------------------------------------------------------------------------
// The differential: serial vs N lanes, every registry circuit, store on/off.

class TargetParallel : public ::testing::TestWithParam<unsigned> {};

TEST_P(TargetParallel, BitIdenticalToSerialWithStore) {
  const unsigned lanes = GetParam();
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE("circuit " + name);
    const netlist::Circuit c = gen::make_circuit(name);
    const fault::FaultList faults = capped_faults(c, 40);
    const RunOutput serial = run_once(c, faults, lane_config(1, true));
    const RunOutput parallel = run_once(c, faults, lane_config(lanes, true));
    expect_identical(serial.result, parallel.result);
    expect_trace_equal(serial.trace, parallel.trace);
    // The serial path never speculates; the lane path accounts for every
    // launched task exactly once.
    EXPECT_EQ(serial.spec.speculated, 0);
    EXPECT_EQ(parallel.spec.speculated,
              parallel.spec.committed + parallel.spec.discarded);
  }
}

TEST_P(TargetParallel, BitIdenticalToSerialWithoutStore) {
  const unsigned lanes = GetParam();
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE("circuit " + name);
    const netlist::Circuit c = gen::make_circuit(name);
    const fault::FaultList faults = capped_faults(c, 24);
    const RunOutput serial = run_once(c, faults, lane_config(1, false));
    const RunOutput parallel = run_once(c, faults, lane_config(lanes, false));
    expect_identical(serial.result, parallel.result);
    expect_trace_equal(serial.trace, parallel.trace);
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, TargetParallel, ::testing::Values(2u, 4u));

// ---------------------------------------------------------------------------
// Wall-clock passes opt out of speculation entirely (DESIGN.md §4j): the
// run must take the serial path, never launching a lane task.

TEST(TargetParallelGates, DeadlinePassesStaySerial) {
  const netlist::Circuit c = gen::make_circuit("s27");
  const fault::FaultList faults = fault::collapse(c);
  hybrid::HybridConfig cfg = lane_config(4, true);
  for (auto& pass : cfg.schedule.passes) pass.time_limit_s = 1000.0;
  const RunOutput out = run_once(c, faults, cfg);
  EXPECT_EQ(out.spec.speculated, 0);
  EXPECT_GT(out.result.detected(), 0u);
}

TEST(TargetParallelGates, LaneRunsActuallySpeculate) {
  // Sanity that the differential above is not vacuous: with lanes enabled
  // and deadline-free passes, at least one target is solved speculatively.
  const netlist::Circuit c = gen::make_circuit("g344");
  const fault::FaultList faults = capped_faults(c, 40);
  const RunOutput out = run_once(c, faults, lane_config(4, true));
  EXPECT_GT(out.spec.speculated, 0);
  EXPECT_GT(out.spec.committed, 0);
}

TEST(TargetParallelGates, OnlySharedWritesEndEpochs) {
  // An epoch ends only on an RNG draw (one X-fill per verified or rejected
  // candidate), a committed test, or a shared store insert; a fault's own
  // forward-slot write is private and must not end it.  The deterministic
  // pass alone on g526 has many targets that cache a forward solution and
  // then abort justification without writing anything shared.
  const netlist::Circuit c = gen::make_circuit("g526");
  const fault::FaultList faults = capped_faults(c, 40);
  hybrid::HybridConfig cfg = lane_config(4, true);
  cfg.schedule.passes.erase(cfg.schedule.passes.begin());  // drop the GA
  const RunOutput out = run_once(c, faults, cfg);
  const session::EngineCounters& k = out.result.counters;
  ASSERT_GT(k.store.forward_cache_inserts, 0);
  EXPECT_GT(out.spec.epochs, 0);
  EXPECT_LE(out.spec.epochs,
            k.committed_tests + k.verify_failures + k.store.seq_inserts +
                k.store.unjust_inserts + k.store.near_miss_inserts +
                k.store.reachable_inserts);
}

// ---------------------------------------------------------------------------
// Kill-and-resume: a mid-pass snapshot records only committed state (the
// committed cursor, no in-flight speculation), so resuming must land on the
// same bits as the uninterrupted one-lane run.

/// Stops a run of `write_cfg` after `stop` checkpoint ticks (writing one
/// snapshot to a file named by `tag`) and finishes it from that snapshot in
/// a fresh session and engine under `resume_cfg`.  When the stop never
/// fires, the run completed uninterrupted and its result is returned.
session::SessionResult kill_and_resume(const netlist::Circuit& c,
                                       const fault::FaultList& faults,
                                       const hybrid::HybridConfig& write_cfg,
                                       const hybrid::HybridConfig& resume_cfg,
                                       long stop, const std::string& tag) {
  const std::string snap = testing::TempDir() + "tp_" + tag + ".snap";
  std::remove(snap.c_str());
  session::SessionResult partial;
  {
    session::SessionConfig scfg = write_cfg.session_config();
    scfg.checkpoint.path = snap;
    scfg.checkpoint.stop_after_ticks = stop;
    session::Session s(c, faults, scfg);
    util::Rng rng(write_cfg.seed);
    hybrid::HybridEngine engine(c, write_cfg, netlist::sequential_depth(c),
                                rng);
    partial = s.run(engine, write_cfg.schedule);
  }
  std::FILE* f = std::fopen(snap.c_str(), "rb");
  if (!f) return partial;
  std::fclose(f);

  session::Session resumed(c, faults, resume_cfg.session_config());
  util::Rng rng(resume_cfg.seed);
  hybrid::HybridEngine engine(c, resume_cfg, netlist::sequential_depth(c),
                              rng);
  resumed.resume(snap, engine);
  const session::SessionResult finished =
      resumed.run(engine, resume_cfg.schedule);
  std::remove(snap.c_str());
  return finished;
}

TEST(TargetParallelKillResume, MidPassSnapshotResumesBitIdentical) {
  const unsigned lanes = 4;
  util::Rng pick(0xBEEF);
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE("circuit " + name);
    const netlist::Circuit c = gen::make_circuit(name);
    const fault::FaultList faults = capped_faults(c, 32);
    const hybrid::HybridConfig cfg = lane_config(lanes, true);
    const RunOutput reference = run_once(c, faults, lane_config(1, true));

    {
      SCOPED_TRACE("stop tick 1");
      expect_identical(reference.result,
                       kill_and_resume(c, faults, cfg, cfg, 1, name));
    }
    {
      const long stop = 2 + static_cast<long>(pick.below(6));
      SCOPED_TRACE("stop tick " + std::to_string(stop));
      expect_identical(reference.result,
                       kill_and_resume(c, faults, cfg, cfg, stop, name));
    }
  }
}

// The lane count is execution shape, not state: a checkpoint written at one
// lane resumes at four, and the reverse, onto the uninterrupted run's bits —
// digests, tests and every EngineCounters field, the model-pool tallies
// included.
TEST(TargetParallelKillResume, CheckpointResumesAcrossLaneCounts) {
  util::Rng pick(0xFACE);
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE("circuit " + name);
    const netlist::Circuit c = gen::make_circuit(name);
    const fault::FaultList faults = capped_faults(c, 32);
    const RunOutput reference = run_once(c, faults, lane_config(1, true));
    EXPECT_GT(reference.result.counters.det_model_builds, 0);
    EXPECT_GT(reference.result.counters.det_model_acquires,
              reference.result.counters.det_model_builds);
    const long stops[] = {1, 2 + static_cast<long>(pick.below(6))};
    for (const auto& [write, resume] : {std::pair{1u, 4u}, std::pair{4u, 1u}}) {
      for (const long stop : stops) {
        SCOPED_TRACE("lanes " + std::to_string(write) + " -> " +
                     std::to_string(resume) + ", stop tick " +
                     std::to_string(stop));
        expect_identical(
            reference.result,
            kill_and_resume(c, faults, lane_config(write, true),
                            lane_config(resume, true), stop, name + "_x"));
      }
    }
  }
}

}  // namespace
}  // namespace gatpg
