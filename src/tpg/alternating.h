// Alternating simulation/deterministic hybrid — Saab, Saab & Abraham's
// "iterative [simulation-based genetics + deterministic techniques] =
// complete ATPG" (the paper's reference [19] and the hybrid design GA-HITEC
// is explicitly contrasted against in §I).
//
// The generator runs the simulation-based GA (simgen.h) until a fixed
// number of evolved sequences add no detections, then *switches* to the
// deterministic engine for a single targeted fault (excitation, propagation
// and reverse-time justification), applies the resulting test, and resumes
// simulation-based generation.  Compare with GA-HITEC, which instead fuses
// the two approaches inside each targeted fault.
//
// On the session layer the alternation is literal composition: one shared
// Session (fault population, test set, fault simulator) is driven by a
// SimGenEngine and a DetTargetEngine; AlternatingEngine just schedules the
// switches between them.
#pragma once

#include <cstdint>

#include "atpg/detengine.h"
#include "atpg/limits.h"
#include "netlist/circuit.h"
#include "session/session.h"
#include "sim/seqsim.h"
#include "tpg/simgen.h"
#include "util/rng.h"

namespace gatpg::tpg {

struct AlternatingConfig {
  /// Simulation-phase GA settings (see SimGenConfig).
  std::size_t population = 64;
  unsigned generations = 8;
  unsigned sequence_length = 20;
  std::size_t fault_sample = 64;
  /// Switch to the deterministic phase after this many barren GA rounds.
  unsigned switch_after = 3;
  /// Per-fault limits for the deterministic phase.
  atpg::SearchLimits det_limits;
  /// Stop after this many consecutive deterministic targets fail.
  unsigned det_failures_to_stop = 8;
  double time_limit_s = 10.0;
  std::uint64_t seed = 1;
  /// Fault-simulator options (threads, window).
  fault::FaultSimConfig faultsim;
};

/// Unified session result.  The former field spellings map as: ga_rounds ->
/// rounds, det_targets -> counters.targeted, det_successes ->
/// counters.committed_tests.
using AlternatingResult = session::SessionResult;

/// One deterministically targeted fault per step(): round-robin target
/// selection, bounded forward search, reverse-time justification, random
/// X-fill, verification, commit.  Used as the deterministic phase of the
/// alternating hybrid and reusable standalone.
class DetTargetEngine : public session::Engine {
 public:
  struct Outcome {
    bool had_target = false;  // an undetected fault was available
    bool resolved = false;    // it was detected or proven untestable
  };

  /// `rng` supplies the X-fill stream and must outlive the engine.
  DetTargetEngine(const netlist::Circuit& c, const atpg::SearchLimits& limits,
                  util::Rng& rng);

  const char* name() const override { return "det-target"; }
  void run(session::Session& session, const session::PassConfig& pass,
           const util::Deadline& deadline) override;
  std::size_t step(session::Session& session,
                   const util::Deadline& deadline) override;

  const Outcome& last_outcome() const { return last_; }

  /// Snapshot hooks: the X-fill RNG stream (the caller-owned object this
  /// engine holds by reference), the round-robin cursor, and the model-pool
  /// tallies/inventory (baselines + prewarm, as in HybridEngine).
  void save_state(serialize::Writer& w) const override;
  void load_state(serialize::Reader& r) override;

 private:
  const netlist::Circuit& c_;
  const atpg::SearchLimits& limits_;
  util::Rng& rng_;
  /// Observation-distance table shared by every per-fault ForwardEngine.
  atpg::ObsDistances obs_dist_;
  /// FrameModel pool shared across targeted faults (reset-and-reuse
  /// instead of per-target construction; tallies go to EngineCounters).
  atpg::FrameModelPool model_pool_;
  std::size_t next_target_ = 0;  // round-robin cursor
  Outcome last_;
  /// Checkpointed pool tallies carried across a resume (zero for a
  /// never-resumed engine); mirrored counters report base + live tallies.
  long pool_builds_base_ = 0;
  long pool_acquires_base_ = 0;
};

/// The alternation scheduler: SimGenEngine rounds until `switch_after`
/// barren ones, then one DetTargetEngine step, repeated until the time
/// budget, `det_failures_to_stop`, or full resolution.
class AlternatingEngine : public session::Engine {
 public:
  AlternatingEngine(const netlist::Circuit& c,
                    const AlternatingConfig& config);

  const char* name() const override { return "alternating"; }
  void run(session::Session& session, const session::PassConfig& pass,
           const util::Deadline& deadline) override;

  /// Snapshot hooks: the phase counters plus both sub-engines' state (the
  /// shared X-fill RNG is covered by the DetTargetEngine hook, which
  /// serializes the referenced object).
  void save_state(serialize::Writer& w) const override;
  void load_state(serialize::Reader& r) override;

 private:
  const AlternatingConfig& config_;
  SimGenConfig sim_config_;
  util::Rng rng_;
  SimGenEngine simgen_;
  DetTargetEngine det_;
  unsigned barren_rounds_ = 0;  // barren GA rounds in the current sim phase
  unsigned det_failures_ = 0;   // consecutive unresolved det targets
  bool resuming_ = false;       // set by load_state; run() keeps the counters
};

AlternatingResult alternating_hybrid_generate(
    const netlist::Circuit& c, const AlternatingConfig& config,
    session::ProgressObserver* observer = nullptr);

}  // namespace gatpg::tpg
