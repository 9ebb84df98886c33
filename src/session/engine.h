// The engine interface every test generator implements.
//
// An Engine is a strategy for resolving faults against the shared session
// substrate (FaultManager + TestSetBuilder + FaultSimulator): the GA-HITEC
// hybrid (the HITEC baseline is the same engine under a deterministic-only
// schedule), the simulation-based GA, random patterns, and the alternating
// hybrid.  Session::run drives one engine through a PassSchedule.  The
// alternating hybrid interleaves the simulation-based GA and the hybrid
// engine through their own step() members (one GA round, one targeted
// fault); stepping is not part of this interface.
#pragma once

#include "session/pass.h"
#include "util/stopwatch.h"

namespace gatpg::serialize {
class Writer;
class Reader;
}  // namespace gatpg::serialize

namespace gatpg::session {

class Session;

class Engine {
 public:
  virtual ~Engine() = default;

  /// Engine name for observers/benches ("ga-hitec", "sim-ga", ...).
  virtual const char* name() const = 0;

  /// One pass over the shared fault population under `pass` limits.
  /// `deadline` is the pass budget (unlimited when pass_budget_s == 0).
  /// The engine reads and updates session.faults()/tests()/simulator() and
  /// reports through session.counters().
  virtual void run(Session& session, const PassConfig& pass,
                   const util::Deadline& deadline) = 0;

  // -- Snapshot hooks --------------------------------------------------------
  // Engine-private progress that lives outside the session substrate: RNG
  // stream positions, round/stagnation counters, round-robin cursors.  The
  // session writes the payload inside its own engine section (so hooks use
  // the plain field API, no begin_section), records name() next to it, and
  // refuses to load a snapshot into an engine of a different name.  Engines
  // with no private state (none today) keep the no-op defaults.  load_state
  // must also prime the engine to skip any work the checkpointed run had
  // already performed before its first unit (audition probes, pass-entry
  // initialization) — resumed runs must replay nothing.

  virtual void save_state(serialize::Writer& /*w*/) const {}
  virtual void load_state(serialize::Reader& /*r*/) {}
};

}  // namespace gatpg::session
