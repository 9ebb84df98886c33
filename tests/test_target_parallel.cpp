// Speculative parallel fault targeting differential suite (DESIGN.md §4j):
// on every registry circuit, a backtrack-bounded hybrid run at 2 and 4
// targeting lanes must be bit-identical to the serial run — tests, segments,
// fault statuses, every engine and store counter, all three digests, and the
// exact on_target_end observer sequence — with the state store on and off.
// Also covers mid-pass kill-and-resume at 4 lanes, speculation-ledger
// consistency, and the wall-clock-pass opt-out (deadline passes stay
// serial).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "fault/faultlist.h"
#include "gen/registry.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/depth.h"
#include "session/fault_manager.h"
#include "session/observer.h"
#include "session/session.h"
#include "util/rng.h"

namespace gatpg {
namespace {

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

fault::FaultList capped_faults(const netlist::Circuit& c, std::size_t cap) {
  fault::FaultList full = fault::collapse(c);
  if (full.size() > cap) {
    full.faults.resize(cap);
    full.class_sizes.resize(cap);
  }
  return full;
}

/// Records the per-target observer stream — the strictest ordering witness:
/// a speculative run must fire on_target_end for the same faults, with the
/// same effort numbers, in the same order as the serial scan.
class TargetTrace : public session::ProgressObserver {
 public:
  void on_target_end(const session::Session&,
                     const session::TargetEffort& effort) override {
    efforts.push_back(effort);
  }
  std::vector<session::TargetEffort> efforts;
};

struct RunOutput {
  session::SessionResult result;
  std::vector<session::TargetEffort> trace;
  hybrid::SpecStats spec;
};

RunOutput run_once(const netlist::Circuit& c, const fault::FaultList& faults,
                   const hybrid::HybridConfig& cfg) {
  session::Session s(c, faults, cfg.session_config());
  TargetTrace trace;
  s.set_observer(&trace);
  util::Rng rng(cfg.seed);
  hybrid::HybridEngine engine(c, cfg, netlist::sequential_depth(c), rng);
  RunOutput out;
  out.result = s.run(engine, cfg.schedule);
  out.trace = std::move(trace.efforts);
  out.spec = engine.spec_stats();
  return out;
}

void expect_counters_equal(const session::EngineCounters& a,
                           const session::EngineCounters& b) {
  EXPECT_EQ(a.targeted, b.targeted);
  EXPECT_EQ(a.forward_solutions, b.forward_solutions);
  EXPECT_EQ(a.ga_invocations, b.ga_invocations);
  EXPECT_EQ(a.ga_successes, b.ga_successes);
  EXPECT_EQ(a.det_justify_calls, b.det_justify_calls);
  EXPECT_EQ(a.det_justify_successes, b.det_justify_successes);
  EXPECT_EQ(a.verify_failures, b.verify_failures);
  EXPECT_EQ(a.no_justification_needed, b.no_justification_needed);
  EXPECT_EQ(a.aborted_faults, b.aborted_faults);
  EXPECT_EQ(a.committed_tests, b.committed_tests);
  EXPECT_EQ(a.det_decisions, b.det_decisions);
  EXPECT_EQ(a.det_backtracks, b.det_backtracks);
  EXPECT_EQ(a.det_gate_evals, b.det_gate_evals);
  EXPECT_EQ(a.det_events, b.det_events);
  EXPECT_EQ(a.det_model_builds, b.det_model_builds);
  EXPECT_EQ(a.det_model_acquires, b.det_model_acquires);
  EXPECT_EQ(a.store.seq_hits, b.store.seq_hits);
  EXPECT_EQ(a.store.seq_misses, b.store.seq_misses);
  EXPECT_EQ(a.store.seq_inserts, b.store.seq_inserts);
  EXPECT_EQ(a.store.seq_verify_failures, b.store.seq_verify_failures);
  EXPECT_EQ(a.store.unjust_hits, b.store.unjust_hits);
  EXPECT_EQ(a.store.unjust_misses, b.store.unjust_misses);
  EXPECT_EQ(a.store.unjust_inserts, b.store.unjust_inserts);
  EXPECT_EQ(a.store.unjust_subsumed, b.store.unjust_subsumed);
  EXPECT_EQ(a.store.reachable_inserts, b.store.reachable_inserts);
  EXPECT_EQ(a.store.near_miss_inserts, b.store.near_miss_inserts);
  EXPECT_EQ(a.store.ga_seeds_served, b.store.ga_seeds_served);
  EXPECT_EQ(a.store.forward_cache_hits, b.store.forward_cache_hits);
  EXPECT_EQ(a.store.forward_cache_inserts, b.store.forward_cache_inserts);
}

void expect_identical(const session::SessionResult& a,
                      const session::SessionResult& b) {
  EXPECT_EQ(a.digests.faults, b.digests.faults);
  EXPECT_EQ(a.digests.tests, b.digests.tests);
  EXPECT_EQ(a.digests.store, b.digests.store);
  EXPECT_EQ(a.fault_state, b.fault_state);
  EXPECT_EQ(a.test_set, b.test_set);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.passes.size(), b.passes.size());
  for (std::size_t p = 0; p < a.passes.size(); ++p) {
    EXPECT_EQ(a.passes[p].detected, b.passes[p].detected);
    EXPECT_EQ(a.passes[p].vectors, b.passes[p].vectors);
    EXPECT_EQ(a.passes[p].untestable, b.passes[p].untestable);
  }
  expect_counters_equal(a.counters, b.counters);
}

void expect_trace_equal(const std::vector<session::TargetEffort>& a,
                        const std::vector<session::TargetEffort>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fault_index, b[i].fault_index) << "target " << i;
    EXPECT_EQ(a[i].decisions, b[i].decisions) << "target " << i;
    EXPECT_EQ(a[i].backtracks, b[i].backtracks) << "target " << i;
    EXPECT_EQ(a[i].gate_evals, b[i].gate_evals) << "target " << i;
    EXPECT_EQ(a[i].events, b[i].events) << "target " << i;
  }
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

// ---------------------------------------------------------------------------
// Kill-and-resume at 4 lanes: a mid-pass snapshot records only committed
// state (the committed cursor, no in-flight speculation), so resuming must
// land on the same bits as the uninterrupted serial run.

TEST(TargetParallelKillResume, MidPassSnapshotResumesBitIdentical) {
  const unsigned lanes = 4;
  util::Rng pick(0xBEEF);
  for (const std::string& name : gen::registry_names()) {
    SCOPED_TRACE("circuit " + name);
    const netlist::Circuit c = gen::make_circuit(name);
    const fault::FaultList faults = capped_faults(c, 32);
    const hybrid::HybridConfig cfg = lane_config(lanes, true);
    const RunOutput reference = run_once(c, faults, lane_config(1, true));

    const auto kill_and_resume = [&](long stop) -> session::SessionResult {
      const std::string snap =
          testing::TempDir() + "tp_" + name + ".snap";
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

}  // namespace
}  // namespace gatpg
