// The pass scan of HybridEngine::run and its speculative lanes (DESIGN.md
// §4j).
//
// run walks the pass's faults in ascending order and resolves each
// undetected target.  With one lane (and on every pass with a wall-clock
// limit) each target is solved and committed inline; nothing is launched.
// With more lanes, faults ahead of the committed frontier are solved
// speculatively, each against an immutable snapshot of the committed state
// (RNG stream position, good machine, store content) taken at the current
// *epoch*.  Epochs advance only when committed state another fault could
// read mutates — an RNG draw, a committed test, or a write to the store's
// shared content.  A fault's own forward-solution slot is private to it, so
// filling it does not end the epoch; the commit merges that one slot into
// the master instead.  State-neutral targets (aborted, proven untestable,
// GA failures without near-miss inserts) leave the epoch alone too, so
// speculation past them commits wholesale.  A lane result is adopted iff
// its launch epoch is still current — its inputs then equal what the
// one-lane run would have used, so its outputs are that run's outputs.  On
// a mismatch the result is discarded and the fault is recomputed inline.
// Either way every observable — counters, store, tests, digests, observer
// order — is bit-identical at any lane count.
#include "hybrid/hybrid_atpg.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace gatpg::hybrid {

namespace {

using session::FaultStatus;

/// Immutable image of the committed state at one epoch.  Lanes only read it
/// (the cancel flag is the sole post-construction write, by the committer).
struct EpochSnapshot {
  std::uint64_t epoch = 0;
  std::array<std::uint64_t, 4> rng_words{};
  std::unique_ptr<sim::SequenceSimulator> good;
  sim::State3 good_state;
  std::unique_ptr<state::StateStore> store;
  std::uint64_t store_revision = 0;
  state::StateStoreStats store_stats;
  std::atomic<bool> cancelled{false};
};

/// What a lane hands back to the committer.  Lives behind a shared_ptr
/// because ThreadPool::submit takes a copyable std::function.
struct SpecResult {
  TargetResult tr;
  session::EngineCounters counters;  // lane-local deltas
  std::array<std::uint64_t, 4> rng_words{};
  std::unique_ptr<state::StateStore> store;  // the lane's clone, post-solve
};

struct SpecTask {
  std::size_t fault_index = 0;
  std::shared_ptr<EpochSnapshot> snap;
  std::shared_ptr<SpecResult> result;
  std::future<void> done;
};

}  // namespace

class HybridEngine::Lanes {
 public:
  Lanes(HybridEngine& engine, session::Session& s,
        const session::PassConfig& pass, unsigned lanes)
      : engine_(engine),
        s_(s),
        pass_(pass),
        window_(2 * std::size_t{lanes}),
        next_spec_(s.faults().pass_cursor()) {
    if (!engine_.lane_pool_) {
      engine_.lane_pool_ = std::make_unique<util::ThreadPool>();
      engine_.lane_model_pools_ = std::make_unique<LanePools>(engine_.c_);
    }
    engine_.lane_pool_->ensure_workers(lanes);
    snap_ = make_snapshot();
  }
  Lanes(const Lanes&) = delete;
  Lanes& operator=(const Lanes&) = delete;

  /// Cancels and waits for every task still running: tasks reference this
  /// object's snapshots and the engine's pools.
  ~Lanes() {
    retire_inflight();
    for (SpecTask& t : zombies_) {
      t.done.wait();
      account_discarded(t);
    }
    engine_.spec_stats_.lane_pool_builds = engine_.lane_model_pools_->builds();
  }

  /// Solves and commits target `i`, the scan's next undetected fault:
  /// adopts its lane result when that is epoch-valid, else recomputes it
  /// inline; then ends the epoch if the commit changed state that another
  /// fault's solve reads.
  TargetOutcome target(std::size_t i) {
    top_up(i);

    // Uniform mutation probe around the commit: an epoch ends exactly when
    // committed state that another fault's solve reads has changed.
    const std::array<std::uint64_t, 4> rng_before =
        engine_.rng_.state_words();
    const std::uint64_t revision_before = s_.state_store().revision();
    const long tests_before = s_.counters().committed_tests;

    TargetOutcome outcome;
    if (!inflight_.empty() && inflight_.front().fault_index == i) {
      SpecTask t = std::move(inflight_.front());
      inflight_.pop_front();
      t.done.get();  // rethrows a lane failure
      if (t.snap->epoch == epoch_) {
        outcome = commit(t);
      } else {
        account_discarded(t);
        outcome = engine_.target_fault(s_, i, pass_);
      }
    } else {
      outcome = engine_.target_fault(s_, i, pass_);
    }

    if (engine_.rng_.state_words() != rng_before ||
        s_.state_store().revision() != revision_before ||
        s_.counters().committed_tests != tests_before) {
      ++epoch_;
      ++engine_.spec_stats_.epochs;
      retire_inflight();
      // Reap whatever already finished so the zombie list stays small; the
      // rest sees the cancel flag and winds down on its own.
      std::erase_if(zombies_, [&](const SpecTask& z) {
        if (z.done.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          return false;
        }
        account_discarded(z);
        return true;
      });
      next_spec_ = i + 1;
      snap_ = make_snapshot();
    }
    return outcome;
  }

 private:
  std::shared_ptr<EpochSnapshot> make_snapshot() const {
    auto snap = std::make_shared<EpochSnapshot>();
    snap->epoch = epoch_;
    snap->rng_words = engine_.rng_.state_words();
    snap->good = std::make_unique<sim::SequenceSimulator>(
        s_.simulator().good_machine());
    snap->good_state = s_.simulator().good_state();
    snap->store = s_.state_store().clone();
    snap->store_revision = s_.state_store().revision();
    snap->store_stats = s_.state_store().stats();
    return snap;
  }

  void launch(std::size_t j) {
    SpecTask t;
    t.fault_index = j;
    t.snap = snap_;
    t.result = std::make_shared<SpecResult>();
    // Captured on the committer thread between commits, so they carry the
    // current epoch's values even though they live outside the snapshot.
    const fault::Fault f = s_.faults().fault(j);
    const sim::State3 faulty_state = s_.simulator().fault_state(j);
    const sim::V3 launch_prev = s_.simulator().launch_prev(j);
    t.done = engine_.lane_pool_->submit(
        [engine = &engine_, j, f, faulty_state, launch_prev, snap = snap_,
         result = t.result, pools = engine_.lane_model_pools_.get(),
         pass = &pass_]() {
          std::unique_ptr<atpg::FrameModelPool> pool = pools->acquire();
          util::Rng rng;
          rng.set_state_words(snap->rng_words);
          std::unique_ptr<state::StateStore> store = snap->store->clone();
          const util::Deadline deadline =
              util::Deadline::cancelled_by(&snap->cancelled);

          TargetFacilities fx;
          fx.rng = &rng;
          fx.counters = &result->counters;
          fx.store = store.get();
          fx.pool = pool.get();
          fx.good_machine = snap->good.get();
          fx.good_state = snap->good_state;
          fx.faulty_state = faulty_state;
          fx.launch_prev = launch_prev;
          fx.deadline = &deadline;
          fx.ga_parallel.threads = 1;  // the lane itself is the parallelism

          result->tr = engine->solve_target(f, j, *pass, fx);
          result->rng_words = rng.state_words();
          result->store = std::move(store);
          pools->release(std::move(pool));
        });
    ++engine_.spec_stats_.speculated;
    inflight_.push_back(std::move(t));
  }

  void top_up(std::size_t frontier) {
    next_spec_ = std::max(next_spec_, frontier);
    const session::FaultManager& fm = s_.faults();
    while (inflight_.size() < window_ && next_spec_ < fm.size()) {
      const std::size_t j = next_spec_++;
      // Eligibility is epoch-invariant: statuses and the drop list only
      // change at commits (which bump the epoch and clear the window) or
      // when a fault resolves itself, so a launched task's fault is still
      // an undetected target when the scan reaches it.
      if (fm.status(j) != FaultStatus::kUndetected) continue;
      if (s_.simulator().detected()[j]) continue;
      launch(j);
    }
  }

  // Adopts a finished, epoch-valid lane result: fold the counter deltas,
  // advance the RNG, fold store stats and adopt content, then the one
  // commit point every target passes through.
  TargetOutcome commit(SpecTask& t) {
    SpecResult& r = *t.result;
    s_.counters() += r.counters;
    // Epoch-valid: the live RNG still sits where the snapshot took it, so
    // the lane's end position is the one the inline solve would reach.
    engine_.rng_.set_state_words(r.rng_words);
    state::StateStore& master = s_.state_store();
    state::StateStoreStats stats_delta = r.store->stats();
    stats_delta -= t.snap->store_stats;
    master.apply_stats_delta(stats_delta);
    if (r.store->revision() != t.snap->store_revision) {
      // Within an epoch the master's shared content equals the snapshot's
      // (shared writes always end the epoch), so adopting the clone's
      // shared content wholesale equals replaying the lane's inserts.
      master.adopt_content(*r.store);
    }
    // The fault's own forward slot is private: earlier commits of this
    // epoch may have filled other slots on the master, so merge just this.
    master.adopt_forward(*r.store, t.fault_index);
    ++engine_.spec_stats_.committed;
    return engine_.commit_target(s_, r.tr);
  }

  /// Cancels the current snapshot's tasks and parks them as zombies.
  void retire_inflight() {
    snap_->cancelled.store(true, std::memory_order_relaxed);
    while (!inflight_.empty()) {
      zombies_.push_back(std::move(inflight_.front()));
      inflight_.pop_front();
    }
  }

  void account_discarded(const SpecTask& t) {
    ++engine_.spec_stats_.discarded;
    engine_.spec_stats_.wasted_gate_evals += t.result->counters.det_gate_evals;
  }

  HybridEngine& engine_;
  session::Session& s_;
  const session::PassConfig& pass_;
  /// Speculation window: faults past the committed frontier in flight.
  const std::size_t window_;
  std::uint64_t epoch_ = 0;
  std::shared_ptr<EpochSnapshot> snap_;
  std::deque<SpecTask> inflight_;
  std::vector<SpecTask> zombies_;  // superseded tasks awaiting completion
  std::size_t next_spec_;
};

void HybridEngine::run(session::Session& s, const session::PassConfig& pass,
                       const util::Deadline& pass_deadline) {
  // Speculative lanes only for passes bounded by backtracks alone: a
  // wall-clock limit makes each target's outcome timing-dependent, which
  // speculation cannot replay bit-identically (see DESIGN.md §4j).
  const unsigned lane_count = s.config().target_parallel.resolved_lanes();
  std::optional<Lanes> lanes;
  if (lane_count > 1 && pass.time_limit_s <= 0 && pass.pass_budget_s <= 0) {
    lanes.emplace(*this, s, pass, lane_count);
  }
  session::FaultManager& fm = s.faults();
  // The pass cursor lives in the FaultManager so a mid-pass checkpoint
  // resumes the ascending scan at the exact next target; begin_pass()
  // rewinds it, so an uninterrupted pass scans from 0.
  for (std::size_t i = fm.pass_cursor(); i < fm.size(); ++i) {
    if (pass_deadline.expired() || s.stop_requested()) break;
    if (fm.status(i) != FaultStatus::kUndetected) {
      fm.set_pass_cursor(i + 1);
      continue;
    }
    if (s.simulator().detected()[i]) {
      // Incidentally detected by an earlier test.
      fm.mark_detected(i);
      fm.set_pass_cursor(i + 1);
      continue;
    }
    resolve_target(s, i, lanes ? lanes->target(i) : target_fault(s, i, pass));
    fm.set_pass_cursor(i + 1);
    // One fully-completed unit of work: statuses applied, detections
    // absorbed, cursor advanced — a consistent checkpoint point.  A
    // mid-pass snapshot records only committed state; in-flight
    // speculation is recomputed after a resume.
    s.checkpoint_tick();
  }
}

}  // namespace gatpg::hybrid
