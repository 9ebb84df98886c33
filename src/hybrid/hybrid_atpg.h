// The hybrid test generator (GA-HITEC) and the deterministic baseline
// (HITEC mode), expressed as a session::Engine over the shared ATPG session
// substrate:
//
//   for each pass in the schedule (Session::run):
//     for each undetected, not-proven-untestable fault:
//       repeat (Fig. 1 loop, bounded):
//         ForwardEngine: excite + propagate -> (vectors, required state)
//         justify required state:
//           genetic pass  -> GA from the current good-circuit state
//           deterministic -> reverse time processing from the all-X state
//         verify candidate test with the independent fault simulator;
//         on success: commit to the session test set, fault-simulate for
//         incidental detections (fault dropping), move to the next fault;
//         on justification failure: ask the ForwardEngine for an
//         alternative excitation/propagation solution and retry.
//
// Untestability is claimed only on completed exhaustive searches (forward
// exhaustion with every required state proven unjustifiable, or forward
// exhaustion before any solution); searches stopped by a limit mark the
// fault aborted-for-this-pass instead.  This loop is the only source of
// untestable verdicts.  The paper's conclusion suggests filtering untestable
// faults out before the GA passes; here pass 1's forward search already
// proves them before it calls the GA, and a separate pre-pass gained no
// proof and no speed on any registry circuit (EXPERIMENTS.md).
//
// The HITEC baseline is this same engine driven by a deterministic-only
// schedule (PassSchedule::hitec); fault-state tracking, fault dropping, and
// test-set accumulation all live in the session layer.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "atpg/detengine.h"
#include "atpg/justify.h"
#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "hybrid/ga_justify.h"
#include "session/pass.h"
#include "session/session.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace gatpg::hybrid {

struct HybridConfig {
  session::PassSchedule schedule = session::PassSchedule::ga_hitec(0.05);
  /// Fault universe the generator targets (stuck-at by default; transition
  /// faults run the same Fig. 1 loop over two-frame launch/capture tests).
  fault::FaultUniverse fault_model = fault::FaultUniverse::kStuckAt;
  /// Propagation window; 0 = auto (clamped, see implementation).
  unsigned max_forward_frames = 0;
  /// Reverse-time depth; 0 = auto.
  unsigned max_justify_depth = 0;
  /// Fig. 1 loop bound: alternative forward solutions tried per fault/pass.
  unsigned max_solutions_per_fault = 20;
  double ga_good_weight = 0.9;
  double ga_faulty_weight = 0.1;
  bool ga_square_fitness = false;
  ga::SelectionScheme selection =
      ga::SelectionScheme::kTournamentWithoutReplacement;
  std::uint64_t seed = 1;
  /// Worker-pool sizing for the fault simulator's group sweeps and the GA
  /// justifier's batch evaluation (0 = hardware_concurrency, 1 = serial).
  /// Results are bit-identical for any thread count.
  util::ParallelConfig parallel;
  /// Fault-simulator options (window; threads come from `parallel` above,
  /// which overrides faultsim.parallel so one knob sizes every pool).
  fault::FaultSimConfig faultsim;
  /// Cross-fault state-knowledge layer (justified-sequence cache,
  /// unjustifiable-cube proofs, GA seeding, forward-solution reuse).
  /// Disabled by default; a disabled store is inert.
  state::StateStoreConfig state_store;
  /// Speculative per-fault targeting lanes (see DESIGN.md §4j).  Only
  /// engaged for passes without wall-clock limits (time_limit_s and
  /// pass_budget_s both <= 0); results are bit-identical at any lane count.
  util::TargetParallelConfig target_parallel;

  /// The session-layer config a run over this config uses: fault model,
  /// fault-sim options sized by `parallel`, state store and targeting lanes
  /// (checkpointing stays inert).
  session::SessionConfig session_config() const;
};

/// What one fault target reads and writes while it solves, decoupled from
/// the live session so the same solve runs serially (facilities point at
/// the session's own RNG/counters/store/pool/simulator) or speculatively on
/// a lane (facilities point at lane-local clones of an epoch snapshot).
struct TargetFacilities {
  util::Rng* rng = nullptr;                    ///< X-fill stream
  session::EngineCounters* counters = nullptr; ///< activity tallies
  state::StateStore* store = nullptr;          ///< may be disabled, never null
  atpg::FrameModelPool* pool = nullptr;
  /// Good machine the candidate-verify simulation starts from (the session
  /// simulator's, or the epoch snapshot's copy).
  const sim::SequenceSimulator* good_machine = nullptr;
  sim::State3 good_state;    ///< good-machine FF state at target start
  sim::State3 faulty_state;  ///< target fault's parked faulty FF state
  /// Good value of the target fault's launch line in the frame preceding
  /// the candidate (FaultSimulator::launch_prev of the session/epoch state).
  /// Only transition-fault verification consumes it; kX = no launch pending.
  sim::V3 launch_prev = sim::V3::kX;
  const util::Deadline* deadline = nullptr;
  /// Pool sizing for the GA justifier's fitness batches.  Lanes force
  /// {threads = 1}: the lane itself is the parallelism, and GA results are
  /// thread-count-invariant so the answer is unchanged.
  util::ParallelConfig ga_parallel;
};

struct TargetOutcome {
  bool detected = false;
  bool untestable = false;
  bool aborted = false;
};

/// A solved target, not yet committed: the outcome, the per-fault effort
/// row, (when detected) the candidate test awaiting commit_test, and the
/// most FrameModels the solve held at once (folded into
/// EngineCounters::det_model_builds by max at commit).
struct TargetResult {
  TargetOutcome outcome;
  session::TargetEffort effort;
  sim::Sequence candidate;
  std::size_t pool_peak = 0;
};

/// Speculation-efficiency counters of the target-parallel scheduler.
/// Deliberately not part of EngineCounters: they measure scheduling luck,
/// not engine behavior, and differ run-to-run with lane count while every
/// EngineCounters field stays bit-identical.
struct SpecStats {
  long speculated = 0;  ///< targets launched on a lane
  long committed = 0;   ///< lane results adopted as-is
  long discarded = 0;   ///< lane results thrown away (recomputed inline)
  long wasted_gate_evals = 0;  ///< gate evals spent on discarded results
  long epochs = 0;      ///< epoch ends (shared-state mutations) in lane runs
  /// Lane-local FrameModelPools constructed; the engine keeps them across
  /// passes, so this stays at most the speculation window (2 x lanes).
  /// Timing-dependent: it counts how many lane tasks overlapped.
  long lane_pool_builds = 0;
};

/// The per-fault targeted engine (Fig. 1).  Reusable standalone against any
/// session; HybridAtpg below is the conventional facade.
class HybridEngine : public session::Engine {
 public:
  /// `rng` supplies the X-fill stream and must outlive the engine.
  HybridEngine(const netlist::Circuit& c, const HybridConfig& config,
               unsigned depth, util::Rng& rng);

  const char* name() const override { return "ga-hitec"; }
  void run(session::Session& session, const session::PassConfig& pass,
           const util::Deadline& deadline) override;
  /// One targeted fault (round-robin over the undetected set) under the
  /// schedule's last pass, whose limits bound it: the alternating hybrid's
  /// deterministic phase.
  void step(session::Session& session);

  /// Snapshot hooks: the X-fill RNG stream and the stepwise cursor.
  void save_state(serialize::Writer& w) const override;
  void load_state(serialize::Reader& r) override;

  /// Solves one fault against the given facilities without touching any
  /// session or engine state: every read and write goes through `fx`
  /// (including the target's det_model_acquires into fx.counters).
  /// Serial targeting and the speculative lanes share this exact code, so
  /// a lane's answer from snapshot state equals the serial answer whenever
  /// the snapshot still matches the committed state.
  TargetResult solve_target(const fault::Fault& f, std::size_t fault_index,
                            const session::PassConfig& pass,
                            TargetFacilities& fx) const;

  /// Speculation-efficiency counters of the last/current run (cumulative
  /// across passes; zero for serial-only runs).
  const SpecStats& spec_stats() const { return spec_stats_; }

 private:
  /// The speculative lanes of one pass (src/hybrid/target_parallel.cpp):
  /// lanes solve faults ahead of the committed frontier; results commit
  /// strictly in fault order and only when their launch epoch is current.
  class Lanes;
  /// Lane-local FrameModelPools, recycled across lane tasks and passes.
  /// The ThreadPool does not pin tasks to threads, so pools are checked out
  /// per task, not per thread; at most the speculation window exist at once.
  class LanePools {
   public:
    explicit LanePools(const netlist::Circuit& c) : c_(c) {}

    std::unique_ptr<atpg::FrameModelPool> acquire() {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (!free_.empty()) {
          std::unique_ptr<atpg::FrameModelPool> pool =
              std::move(free_.back());
          free_.pop_back();
          return pool;
        }
        ++builds_;
      }
      return std::make_unique<atpg::FrameModelPool>(c_);
    }

    void release(std::unique_ptr<atpg::FrameModelPool> pool) {
      const std::lock_guard<std::mutex> lock(mu_);
      free_.push_back(std::move(pool));
    }

    /// Pools constructed so far; read only while no lane task runs.
    long builds() const { return builds_; }

   private:
    const netlist::Circuit& c_;
    std::mutex mu_;
    std::vector<std::unique_ptr<atpg::FrameModelPool>> free_;
    long builds_ = 0;
  };

  /// Solves one fault against the live session and commits it.
  TargetOutcome target_fault(session::Session& session,
                             std::size_t fault_index,
                             const session::PassConfig& pass);
  /// The one commit point of a solved target, serial or speculative:
  /// extends the test set, raises det_model_builds to the target's pool
  /// peak, and fires on_target_end.
  TargetOutcome commit_target(session::Session& session,
                              TargetResult& result);
  /// The Fig. 1 attempt loop of solve_target; `det_total` accumulates the
  /// deterministic justifier's per-call SearchStats across attempts and
  /// `candidate` receives the verified test on detection.
  TargetOutcome attempt_solutions(const fault::Fault& f,
                                  std::size_t fault_index,
                                  const session::PassConfig& pass,
                                  TargetFacilities& fx,
                                  atpg::ForwardEngine& forward,
                                  const GaStateJustifier& ga_justifier,
                                  atpg::DeterministicJustifier& det_justifier,
                                  atpg::SearchStats& det_total,
                                  sim::Sequence& candidate) const;
  void resolve_target(session::Session& session, std::size_t fault_index,
                      const TargetOutcome& outcome);
  static void fill_x(sim::Sequence& seq, util::Rng& rng);
  unsigned ga_sequence_length(const session::PassConfig& pass) const;

  const netlist::Circuit& c_;
  const HybridConfig& config_;
  unsigned depth_;
  util::Rng& rng_;
  /// Observation-distance table shared by every per-fault ForwardEngine.
  atpg::ObsDistances obs_dist_;
  /// FrameModel pool shared by every per-fault ForwardEngine and
  /// DeterministicJustifier on the committer thread: per-target model
  /// construction becomes a reset-and-reuse.  Lanes use their own pools.
  atpg::FrameModelPool model_pool_;
  std::size_t next_target_ = 0;  // stepwise round-robin cursor
  /// Worker pool for the speculative lanes, created on first parallel pass.
  /// Engine-owned rather than util::shared_pool(): commits run
  /// parallel_for_chunks (fault sim) on the shared pool, and lane tasks
  /// parked in front of those chunks would serialize every commit.
  std::unique_ptr<util::ThreadPool> lane_pool_;
  std::unique_ptr<LanePools> lane_model_pools_;
  SpecStats spec_stats_;
};

class HybridAtpg {
 public:
  HybridAtpg(const netlist::Circuit& c, HybridConfig config);

  /// Runs the full schedule on a fresh session.  An optional observer
  /// receives per-pass reports.
  session::SessionResult run(session::ProgressObserver* observer = nullptr);

  const fault::FaultList& fault_list() const { return faults_; }

 private:
  const netlist::Circuit& c_;
  HybridConfig config_;
  fault::FaultList faults_;
  unsigned depth_;
  util::Rng rng_;
};

}  // namespace gatpg::hybrid
