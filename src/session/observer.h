// Progress reporting shared by every session engine.
//
// All engines report through one spigot: cumulative per-pass PassOutcome
// rows (the paper's Table II/III lines), the Fig. 1 activity counters, and
// the fault simulator's SimStats.  Benches, logging, and future telemetry
// attach a ProgressObserver to the Session instead of growing
// engine-specific result plumbing.
#pragma once

#include <cstddef>

#include "fault/faultsim.h"
#include "session/pass.h"
#include "state/state_store.h"

namespace gatpg::session {

class Session;
struct SessionResult;

/// Cumulative totals at the end of each pass — one row of Table II/III.
struct PassOutcome {
  std::size_t detected = 0;
  std::size_t vectors = 0;
  std::size_t untestable = 0;
  double time_s = 0.0;
};

/// Internal-activity counters (Fig. 1 instrumentation), accumulated across
/// every pass of a session run.
struct EngineCounters {
  long targeted = 0;             // fault targeting attempts
  long forward_solutions = 0;    // excitation/propagation solutions found
  long ga_invocations = 0;
  long ga_successes = 0;
  long det_justify_calls = 0;
  long det_justify_successes = 0;
  long verify_failures = 0;      // candidate tests rejected by fault sim
  long no_justification_needed = 0;
  long aborted_faults = 0;       // per-pass limit hits
  long committed_tests = 0;      // targeted tests committed to the test set
  // Deterministic-engine effort (forward search + deterministic
  // justification), summed over every targeted fault.
  long det_decisions = 0;
  long det_backtracks = 0;
  long det_gate_evals = 0;  // implication gate evaluations (both planes)
  long det_events = 0;      // incremental-implication event-queue pops
  // FrameModel pooling, as a serial pool would tally it at any lane count:
  // acquires sum over targets, builds is the most models any one target
  // held at once (a serial pool builds exactly up to that inventory).
  // builds ≪ acquires proves per-fault models are being reset-and-reused
  // instead of reconstructed; engines without a pool leave both zero.
  long det_model_builds = 0;
  long det_model_acquires = 0;
  // State-knowledge layer effectiveness (mirrored from the session's
  // StateStore at every pass boundary; all zero when the store is off).
  state::StateStoreStats store;

  /// Field list (util/fields.h), in declaration order; `store` flattens.
  static constexpr auto fields() {
    using E = EngineCounters;
    return std::make_tuple(
        util::Field{"targeted", &E::targeted},
        util::Field{"forward_solutions", &E::forward_solutions},
        util::Field{"ga_invocations", &E::ga_invocations},
        util::Field{"ga_successes", &E::ga_successes},
        util::Field{"det_justify_calls", &E::det_justify_calls},
        util::Field{"det_justify_successes", &E::det_justify_successes},
        util::Field{"verify_failures", &E::verify_failures},
        util::Field{"no_justification_needed", &E::no_justification_needed},
        util::Field{"aborted_faults", &E::aborted_faults},
        util::Field{"committed_tests", &E::committed_tests},
        util::Field{"det_decisions", &E::det_decisions},
        util::Field{"det_backtracks", &E::det_backtracks},
        util::Field{"det_gate_evals", &E::det_gate_evals},
        util::Field{"det_events", &E::det_events},
        util::Field{"det_model_builds", &E::det_model_builds},
        util::Field{"det_model_acquires", &E::det_model_acquires},
        util::Field{"store", &E::store});
  }
  EngineCounters& operator+=(const EngineCounters& o) {
    util::for_each_field([](auto, long& x, long y) { x += y; }, *this, o);
    return *this;
  }
  bool operator==(const EngineCounters&) const = default;
};
static_assert(util::fields_cover<EngineCounters>());

/// Per-targeted-fault deterministic-engine effort (the fault's SearchStats
/// aggregated over forward search and deterministic justification).
struct TargetEffort {
  std::size_t fault_index = 0;
  /// Model of the targeted fault (observers reporting per-fault effort can
  /// distinguish stuck-at from transition targets in mixed tooling).
  fault::FaultModel model = fault::FaultModel::kStuckAt;
  long decisions = 0;
  long backtracks = 0;
  long gate_evals = 0;
  long events = 0;
};

/// Observer hook.  All callbacks default to no-ops; the session pointer
/// stays valid for the duration of the call only.  Observers may read the
/// session's FaultManager, TestSetBuilder, counters, and simulator stats;
/// they must not mutate session state.
class ProgressObserver {
 public:
  virtual ~ProgressObserver() = default;

  virtual void on_session_begin(const Session& /*session*/) {}
  virtual void on_pass_begin(const Session& /*session*/,
                             std::size_t /*pass_index*/,
                             const PassConfig& /*pass*/) {}
  /// `outcome` is the cumulative row just appended for `pass_index`.
  virtual void on_pass_end(const Session& /*session*/,
                           std::size_t /*pass_index*/,
                           const PassOutcome& /*outcome*/) {}
  /// Fired by the targeted engines after each deterministic fault target
  /// resolves, with that fault's aggregated search effort.
  virtual void on_target_end(const Session& /*session*/,
                             const TargetEffort& /*effort*/) {}
  virtual void on_session_end(const Session& /*session*/,
                              const SessionResult& /*result*/) {}
};

}  // namespace gatpg::session
