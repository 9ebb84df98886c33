// The shared ATPG session: one fault population, one test set, one fault
// simulator, driven by interchangeable engines over a pass schedule.
//
// Ownership:
//
//   Session
//     ├── FaultManager      fault list + per-fault lifecycle + dropping
//     ├── TestSetBuilder    flat test set + per-target segment boundaries
//     ├── fault::FaultSimulator   the one continuous simulation of the
//     │                     growing test set (fault dropping, good state)
//     └── ProgressObserver* (optional, not owned)  per-pass reporting
//
//   Session::run(engine, schedule) drives any Engine implementation through
//   the schedule and produces the unified SessionResult every generator now
//   returns.  Engines never keep private fault-state vectors or test-set
//   copies; everything flows through the session.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "netlist/circuit.h"
#include "session/engine.h"
#include "session/fault_manager.h"
#include "session/observer.h"
#include "session/pass.h"
#include "session/test_set_builder.h"
#include "state/state_store.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace gatpg::session {

/// The unified result every session-driven generator produces (hybrid,
/// simulation-based and alternating alike).
struct SessionResult {
  /// Cumulative Det/Vec/Unt/Time after each pass (Table II/III rows).
  std::vector<PassOutcome> passes;
  sim::Sequence test_set;
  /// The test set as the list of generated subsequences (one per committed
  /// target/round/block), preserving the boundaries fault::compact_segments
  /// needs.  Concatenating them in order reproduces test_set exactly.
  std::vector<sim::Sequence> segments;
  std::size_t total_faults = 0;
  std::vector<FaultStatus> fault_state;
  EngineCounters counters;
  /// Engine rounds completed during this run (GA rounds for the
  /// simulation-based engines; 0 for the targeted engines).
  long rounds = 0;
  /// Cumulative fitness evaluations over the session's lifetime.
  long evaluations = 0;
  /// Content digests of the final session state (FaultManager status array,
  /// TestSetBuilder segments, StateStore caches).  Two runs are
  /// bit-identical iff these match — the kill-and-resume suite and the
  /// sharded daemon's merge verification both compare them.
  struct Digests {
    std::uint64_t faults = 0;
    std::uint64_t tests = 0;
    std::uint64_t store = 0;
  };
  Digests digests;

  std::size_t detected() const {
    return passes.empty() ? 0 : passes.back().detected;
  }
  std::size_t untestable() const {
    return passes.empty() ? 0 : passes.back().untestable;
  }
  double coverage() const {
    return total_faults == 0
               ? 0.0
               : static_cast<double>(detected()) /
                     static_cast<double>(total_faults);
  }
};

/// Auto-checkpoint policy, evaluated by Session::checkpoint_tick() — the
/// hook the engines call after every fully-completed unit of work (a
/// resolved target, a committed GA round), i.e. exactly at the points where
/// the live state is a consistent prefix of the run.
struct CheckpointConfig {
  /// Snapshot file path; empty disables auto-checkpointing entirely.
  std::string path;
  /// Write a snapshot whenever this many seconds have passed since the
  /// last one (0 = no time-based checkpointing).
  double interval_s = 0.0;
  /// Write a snapshot every N ticks (0 = no tick-based checkpointing).
  long every_ticks = 0;
  /// Test hook: after this many ticks, write one snapshot and request the
  /// engine to stop (0 = never).  The kill-and-resume suite uses this to
  /// interrupt a run at an exact, reproducible mid-pass point.
  long stop_after_ticks = 0;
};

struct SessionConfig {
  /// Fault universe the session targets.  The convenience constructor
  /// collapses this universe; the explicit-list constructor trusts its
  /// caller but still records the universe for snapshot identity (a
  /// snapshot taken under one model never resumes under another).
  fault::FaultUniverse fault_model = fault::FaultUniverse::kStuckAt;
  /// Fault-simulator options (threads, window).
  fault::FaultSimConfig faultsim;
  /// State-knowledge layer options (off by default).  No fault is detected in
  /// one mode and untestable in the other; abort-free runs match exactly.
  state::StateStoreConfig state_store;
  /// Speculative per-fault targeting lanes for the deterministic engines
  /// (lanes = 1 keeps the exact serial path; lane count never changes
  /// results, only wall clock).
  util::TargetParallelConfig target_parallel;
  /// Auto-checkpoint policy (inert by default).
  CheckpointConfig checkpoint;
};

class Session {
 public:
  /// Builds the session around an explicit (already collapsed) fault list.
  Session(const netlist::Circuit& c, fault::FaultList faults,
          SessionConfig config = {});
  /// Convenience: collapses the circuit's fault universe itself.
  explicit Session(const netlist::Circuit& c, SessionConfig config = {});

  const netlist::Circuit& circuit() const { return c_; }
  const SessionConfig& config() const { return config_; }
  FaultManager& faults() { return faults_; }
  const FaultManager& faults() const { return faults_; }
  TestSetBuilder& tests() { return tests_; }
  const TestSetBuilder& tests() const { return tests_; }
  fault::FaultSimulator& simulator() { return fsim_; }
  const fault::FaultSimulator& simulator() const { return fsim_; }
  EngineCounters& counters() { return counters_; }
  const EngineCounters& counters() const { return counters_; }
  state::StateStore& state_store() { return store_; }
  const state::StateStore& state_store() const { return store_; }

  /// Wall-clock seconds since construction (what PassOutcome::time_s
  /// reports), plus the elapsed time carried over from a resumed snapshot.
  double elapsed_s() const { return time_offset_s_ + total_.seconds(); }

  /// Observer for per-pass reporting; nullptr (default) disables it.  Not
  /// owned; must outlive run().
  void set_observer(ProgressObserver* observer) { observer_ = observer; }
  ProgressObserver* observer() const { return observer_; }

  /// Commits a verified candidate test: simulates it on the session fault
  /// simulator as a continuation of the test set so far (fault dropping),
  /// then appends it with a segment boundary.  Returns the number of faults
  /// the simulator newly detected.  Callers credit those detections to the
  /// FaultManager via faults().absorb_detections(simulator().detected()).
  std::size_t commit_test(sim::Sequence candidate);

  /// Engine bookkeeping: one completed engine round (a GA round of the
  /// simulation-based generators), and fitness-evaluation counts.
  void note_round() { ++rounds_; }
  void note_evaluations(long n) { evaluations_ += n; }
  long evaluations() const { return evaluations_; }

  /// Drives `engine` through `schedule`: per pass, clears the
  /// aborted-this-pass flags, derives the pass deadline from
  /// PassConfig::pass_budget_s, runs the engine, and records the cumulative
  /// PassOutcome row (reported to the observer).  Returns the unified
  /// result; the session stays live, so callers can keep stepping engines
  /// or run another schedule on the same fault population.
  ///
  /// On a session primed by resume(), completed passes are skipped (their
  /// saved outcome rows are prepended verbatim) and the first unfinished
  /// pass continues from the checkpointed cursor without re-clearing the
  /// aborted flags.  If the checkpoint policy stops the run mid-pass, the
  /// partial pass gets no outcome row and the result carries the state as
  /// of the stop.
  SessionResult run(Engine& engine, const PassSchedule& schedule);

  // -- Snapshot / resume -----------------------------------------------------

  /// Serializes the complete live session state to `path` (atomically):
  /// circuit/fault-list identity, fault statuses and pass cursor, committed
  /// segments, StateStore caches, counters, simulator stats, pass progress,
  /// and — when called during run() — the running engine's private state.
  void checkpoint(const std::string& path) const;

  /// Restores a snapshot into this freshly-constructed session (same
  /// circuit, same fault list, same config) and primes `engine` with its
  /// checkpointed private state.  The simulator machines are rebuilt by
  /// replaying the committed segments — reproducing the uninterrupted
  /// run()'s exact call sequence — and every component digest recorded at
  /// checkpoint time is re-verified after load.  Throws
  /// serialize::SnapshotError on any identity or integrity mismatch.
  void resume(const std::string& path, Engine& engine);

  /// Engine hook: one fully-completed unit of work.  Applies the
  /// auto-checkpoint policy (interval/tick/stop-after) and may set
  /// stop_requested().
  void checkpoint_tick();
  /// True once the checkpoint policy has asked the engine to wind down;
  /// engine loops treat it like an expired deadline.
  bool stop_requested() const { return stop_requested_; }

 private:
  const netlist::Circuit& c_;
  FaultManager faults_;
  SessionConfig config_;
  fault::FaultSimulator fsim_;
  state::StateStore store_;
  TestSetBuilder tests_;
  EngineCounters counters_;
  long rounds_ = 0;
  long evaluations_ = 0;
  util::Stopwatch total_;
  ProgressObserver* observer_ = nullptr;

  // Pass progress, serialized so run() can continue a schedule.
  std::vector<PassOutcome> completed_outcomes_;
  bool pass_in_progress_ = false;
  long run_rounds_base_ = 0;  // rounds_ at the start of the current run()
  double time_offset_s_ = 0.0;
  bool resume_primed_ = false;    // next run() continues a restored schedule
  bool resume_mid_pass_ = false;  // skip begin_pass() on the next pass entry

  // Auto-checkpoint bookkeeping.
  const Engine* running_engine_ = nullptr;
  long ticks_ = 0;
  double last_checkpoint_s_ = 0.0;
  bool stop_requested_ = false;
};

}  // namespace gatpg::session
