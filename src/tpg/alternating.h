// Alternating simulation/deterministic hybrid — Saab, Saab & Abraham's
// "iterative [simulation-based genetics + deterministic techniques] =
// complete ATPG" (the paper's reference [19] and the hybrid design GA-HITEC
// is explicitly contrasted against in §I).
//
// The generator runs the simulation-based GA (simgen.h) until a fixed
// number of evolved sequences add no detections, then switches to the
// deterministic engine for a single targeted fault, applies the resulting
// test, and resumes simulation-based generation.  GA-HITEC instead fuses
// the two approaches inside each targeted fault.
//
// Both phases drive one shared Session.  The simulation phase is
// SimGenEngine::step (one GA round); the deterministic phase is
// hybrid::HybridEngine::step (one Fig. 1 target) under a one-pass
// deterministic schedule built from `det_limits`, so its detected,
// untestable and aborted verdicts follow the same rules as the HITEC
// baseline's.
#pragma once

#include <cstdint>

#include "atpg/limits.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/circuit.h"
#include "session/session.h"
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

/// The alternation scheduler: SimGenEngine rounds until `switch_after`
/// barren ones, then one HybridEngine step, repeated until the time budget,
/// `det_failures_to_stop` consecutive unresolved targets, or full
/// resolution.
class AlternatingEngine : public session::Engine {
 public:
  AlternatingEngine(const netlist::Circuit& c,
                    const AlternatingConfig& config);

  const char* name() const override { return "alternating"; }
  void run(session::Session& session, const session::PassConfig& pass,
           const util::Deadline& deadline) override;

  /// Snapshot hooks: the phase counters plus both sub-engines' state (the
  /// HybridEngine hook covers the shared X-fill RNG it holds by reference).
  void save_state(serialize::Writer& w) const override;
  void load_state(serialize::Reader& r) override;

 private:
  const AlternatingConfig& config_;
  SimGenConfig sim_config_;
  hybrid::HybridConfig det_config_;
  util::Rng rng_;
  SimGenEngine simgen_;
  hybrid::HybridEngine det_;
  unsigned barren_rounds_ = 0;  // barren GA rounds in the current sim phase
  unsigned det_failures_ = 0;   // consecutive unresolved det targets
  bool resuming_ = false;       // set by load_state; run() keeps the counters
};

AlternatingResult alternating_hybrid_generate(
    const netlist::Circuit& c, const AlternatingConfig& config,
    session::ProgressObserver* observer = nullptr);

}  // namespace gatpg::tpg
