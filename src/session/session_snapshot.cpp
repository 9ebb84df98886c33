// Session::checkpoint / Session::resume — the snapshot side of the session
// layer, kept out of session.cpp so the orchestration loop stays readable.
//
// Snapshot layout (inside the serialize::Archive payload):
//
//   IDNT  circuit name + structural signature, fault-list identity digest,
//         fault-sim window, engine name
//   FMGR  FaultManager (statuses, aborted flags, counters, pass cursor)
//   TSET  TestSetBuilder (committed segments; flat set rebuilt on load)
//   STOR  StateStore (all four caches + stamps + stats, config-checked)
//   CNTR  EngineCounters (including the mirrored store stats)
//   SIMS  fault-simulator SimStats + detected count at checkpoint time
//   PROG  pass progress (completed outcome rows, mid-pass flag, rounds,
//         evaluations, elapsed wall-clock, tick counter)
//   DIGS  component digests at checkpoint time (re-verified after load)
//   ENGS  the running engine's private state (RNG streams, cursors)
//
// Resume rebuilds the fault-simulator machines by *replaying* the committed
// segments through fsim_.run() — the exact call sequence the uninterrupted
// run performed — rather than poking simulator internals.  The PR 2 window-
// equivalence property guarantees the machines land in the identical state;
// the recorded detected-count and SimStats then cross-check the replay (the
// stats are restored wholesale afterwards because what-if costs are not
// replayable).
#include <utility>

#include "serialize/archive.h"
#include "session/session.h"

namespace gatpg::session {

namespace {

/// FNV-1a-64 over the circuit graph: node types, fanins, and the PI/PO/FF
/// orderings that define vector/state bit positions.  Two circuits with the
/// same signature produce the same simulations, which is what snapshot
/// identity actually requires.
std::uint64_t circuit_signature(const netlist::Circuit& c) {
  serialize::Digest d;
  d.add_u64(c.node_count());
  for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
    d.add_byte(static_cast<std::uint8_t>(c.type(n)));
    const auto fanins = c.fanins(n);
    d.add_u64(fanins.size());
    for (const netlist::NodeId f : fanins) d.add_u64(f);
  }
  for (const auto span : {c.primary_inputs(), c.primary_outputs(), c.flip_flops()}) {
    d.add_u64(span.size());
    for (const netlist::NodeId n : span) d.add_u64(n);
  }
  return d.value();
}

}  // namespace

void Session::checkpoint(const std::string& path) const {
  serialize::Writer w;

  w.begin_section("IDNT");
  w.str(c_.name());
  w.u64(circuit_signature(c_));
  w.u8(static_cast<std::uint8_t>(config_.fault_model));
  w.u64(fault::identity_digest(faults_.list()));
  w.u32(config_.faultsim.window);
  w.str(running_engine_ ? running_engine_->name() : "");
  w.end_section();

  faults_.save(w);
  tests_.save(w);
  store_.save(w);

  w.begin_section("CNTR");
  serialize::write_fields(w, counters_);
  w.end_section();

  w.begin_section("SIMS");
  serialize::write_fields(w, fsim_.stats());
  w.u64(fsim_.detected_count());
  w.end_section();

  w.begin_section("PROG");
  w.u64(completed_outcomes_.size());
  for (const PassOutcome& po : completed_outcomes_) {
    w.u64(po.detected);
    w.u64(po.vectors);
    w.u64(po.untestable);
    w.f64(po.time_s);
  }
  w.boolean(pass_in_progress_);
  w.i64(rounds_);
  w.i64(evaluations_);
  w.i64(run_rounds_base_);
  w.f64(elapsed_s());
  w.i64(ticks_);
  w.end_section();

  w.begin_section("DIGS");
  w.u64(faults_.digest());
  w.u64(tests_.digest());
  w.u64(store_.digest());
  w.end_section();

  w.begin_section("ENGS");
  if (running_engine_) running_engine_->save_state(w);
  w.end_section();

  w.write_file(path);
}

void Session::resume(const std::string& path, Engine& engine) {
  if (tests_.segment_count() != 0 || !completed_outcomes_.empty()) {
    throw serialize::SnapshotError(
        "resume requires a freshly constructed session");
  }
  serialize::Reader r = serialize::Reader::from_file(path);

  r.enter_section("IDNT");
  const std::string circuit_name = r.str();
  const std::uint64_t signature = r.u64();
  const auto universe = static_cast<fault::FaultUniverse>(r.u8());
  const std::uint64_t fault_identity = r.u64();
  const std::uint32_t window = r.u32();
  const std::string engine_name = r.str();
  r.leave_section();
  if (circuit_name != c_.name() || signature != circuit_signature(c_)) {
    throw serialize::SnapshotError("snapshot was taken on circuit '" +
                                   circuit_name + "', not on '" + c_.name() +
                                   "'");
  }
  if (universe != config_.fault_model) {
    throw serialize::SnapshotError(
        std::string("snapshot was taken under the '") +
        fault::universe_name(universe) + "' fault model, not under '" +
        fault::universe_name(config_.fault_model) + "'");
  }
  if (fault_identity != fault::identity_digest(faults_.list())) {
    throw serialize::SnapshotError(
        "snapshot fault list does not match this session's fault list");
  }
  // Thread count is free to change (results are thread-count-independent),
  // but the window must match or the replayed SimStats and grouping counters
  // would diverge from the uninterrupted run.
  if (window != config_.faultsim.window) {
    throw serialize::SnapshotError(
        "snapshot fault-sim window differs from this session's config");
  }
  if (engine_name != engine.name()) {
    throw serialize::SnapshotError("snapshot engine '" + engine_name +
                                   "' does not match resuming engine '" +
                                   engine.name() + "'");
  }

  faults_.load(r);
  tests_.load(r);
  store_.load(r);

  r.enter_section("CNTR");
  serialize::read_fields(r, counters_);
  r.leave_section();

  r.enter_section("SIMS");
  fault::SimStats saved_stats;
  serialize::read_fields(r, saved_stats);
  const std::uint64_t saved_detected = r.u64();
  r.leave_section();

  r.enter_section("PROG");
  completed_outcomes_.resize(r.count(32));  // three u64 + one f64 per row
  for (PassOutcome& po : completed_outcomes_) {
    po.detected = r.u64();
    po.vectors = r.u64();
    po.untestable = r.u64();
    po.time_s = r.f64();
  }
  const bool mid_pass = r.boolean();
  rounds_ = static_cast<long>(r.i64());
  evaluations_ = static_cast<long>(r.i64());
  run_rounds_base_ = static_cast<long>(r.i64());
  time_offset_s_ = r.f64();
  ticks_ = static_cast<long>(r.i64());
  r.leave_section();

  r.enter_section("DIGS");
  const std::uint64_t dig_faults = r.u64();
  const std::uint64_t dig_tests = r.u64();
  const std::uint64_t dig_store = r.u64();
  r.leave_section();

  r.enter_section("ENGS");
  if (!engine_name.empty()) engine.load_state(r);
  r.leave_section();

  // Rebuild the simulator machines by replaying the committed segments —
  // the identical run() call sequence the checkpointed session performed.
  // No good-state sink: the StateStore's reachable log was loaded directly
  // and must not be double-fed.
  for (const sim::Sequence& segment : tests_.segments()) fsim_.run(segment);
  if (fsim_.detected_count() != saved_detected) {
    throw serialize::SnapshotError(
        "snapshot replay detected a different fault count than the "
        "checkpointed run (simulator divergence)");
  }
  fsim_.restore_stats(saved_stats);

  if (faults_.digest() != dig_faults || tests_.digest() != dig_tests ||
      store_.digest() != dig_store) {
    throw serialize::SnapshotError(
        "component digest mismatch after load (corrupt or inconsistent "
        "snapshot)");
  }

  pass_in_progress_ = mid_pass;
  resume_mid_pass_ = mid_pass;
  resume_primed_ = true;
  stop_requested_ = false;
}

}  // namespace gatpg::session
