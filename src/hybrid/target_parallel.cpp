// Speculative parallel fault targeting with in-order commit (DESIGN.md §4j).
//
// The committer (the thread that called run) walks the pass's ascending
// fault scan exactly like the serial loop, but faults ahead of the committed
// frontier are solved speculatively on lanes, each against an immutable
// snapshot of the committed state (RNG stream position, good machine, store
// content) taken at the current *epoch*.  Epochs advance only when committed
// state another fault could read mutates — an RNG draw, a committed test, or
// a write to the store's shared content.  A fault's own forward-solution
// slot is private to it, so filling it does not end the epoch; the commit
// merges that one slot into the master instead.  State-neutral targets
// (aborted, proven untestable, GA failures without near-miss inserts) leave
// the epoch alone too, so speculation past them commits wholesale.  A lane
// result is adopted iff its launch epoch is still current — its inputs then
// equal what the serial run would have used, so its outputs are the serial
// outputs.  On a mismatch the result is discarded and the fault is
// recomputed inline through the exact serial path.  Either way every
// observable — counters, store, tests, digests, observer order — is
// bit-identical to the serial run at any lane count.
#include "hybrid/hybrid_atpg.h"

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
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
  bool rng_consumed = false;
  std::unique_ptr<state::StateStore> store;  // the lane's clone, post-solve
  std::uint64_t store_end_revision = 0;
  std::uint64_t pool_acquires = 0;
  std::size_t pool_peak = 0;
};

struct SpecTask {
  std::size_t fault_index = 0;
  std::shared_ptr<EpochSnapshot> snap;
  std::shared_ptr<SpecResult> result;
  std::future<void> done;
};

/// Lane-local FrameModelPools, recycled across tasks.  The ThreadPool does
/// not pin tasks to threads, so pools are checked out per task, not per
/// thread; at most `window` exist at once.
class LanePools {
 public:
  explicit LanePools(const netlist::Circuit& c) : c_(c) {}

  std::unique_ptr<atpg::FrameModelPool> acquire() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<atpg::FrameModelPool> pool = std::move(free_.back());
        free_.pop_back();
        return pool;
      }
    }
    return std::make_unique<atpg::FrameModelPool>(c_);
  }

  void release(std::unique_ptr<atpg::FrameModelPool> pool) {
    const std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(pool));
  }

 private:
  const netlist::Circuit& c_;
  std::mutex mu_;
  std::vector<std::unique_ptr<atpg::FrameModelPool>> free_;
};

}  // namespace

void HybridEngine::run_speculative(session::Session& s,
                                   const session::PassConfig& pass,
                                   const util::Deadline& pass_deadline,
                                   unsigned lanes) {
  session::FaultManager& fm = s.faults();
  // Speculation window: faults past the committed frontier in flight at once.
  const unsigned window = 2 * lanes;
  if (!lane_pool_) lane_pool_ = std::make_unique<util::ThreadPool>();
  lane_pool_->ensure_workers(lanes);

  LanePools pools(c_);

  std::uint64_t epoch = 0;
  auto make_snapshot = [&]() {
    auto snap = std::make_shared<EpochSnapshot>();
    snap->epoch = epoch;
    snap->rng_words = rng_.state_words();
    snap->good = std::make_unique<sim::SequenceSimulator>(
        s.simulator().good_machine());
    snap->good_state = s.simulator().good_state();
    snap->store = s.state_store().clone();
    snap->store_revision = s.state_store().revision();
    snap->store_stats = s.state_store().stats();
    return snap;
  };
  std::shared_ptr<EpochSnapshot> snap = make_snapshot();

  std::deque<SpecTask> inflight;
  std::vector<SpecTask> zombies;  // superseded tasks awaiting completion
  std::size_t next_spec = fm.pass_cursor();

  auto account_discarded = [&](const SpecTask& t) {
    ++spec_stats_.discarded;
    spec_stats_.wasted_gate_evals += t.result->counters.det_gate_evals;
  };

  auto launch = [&](std::size_t j) {
    SpecTask t;
    t.fault_index = j;
    t.snap = snap;
    t.result = std::make_shared<SpecResult>();
    // Captured on the committer thread between commits, so both carry the
    // current epoch's values even though they live outside the snapshot.
    const fault::Fault f = fm.fault(j);
    const sim::State3 faulty_state = s.simulator().fault_state(j);
    const sim::V3 launch_prev = s.simulator().launch_prev(j);
    const std::shared_ptr<EpochSnapshot> snap_ref = snap;
    const std::shared_ptr<SpecResult> result = t.result;
    LanePools* lane_pools = &pools;
    const session::PassConfig* pass_ptr = &pass;
    t.done = lane_pool_->submit([this, j, f, faulty_state, launch_prev,
                                 snap_ref, result, lane_pools, pass_ptr]() {
      std::unique_ptr<atpg::FrameModelPool> pool = lane_pools->acquire();
      util::Rng rng;
      rng.set_state_words(snap_ref->rng_words);
      std::unique_ptr<state::StateStore> store = snap_ref->store->clone();
      const util::Deadline deadline =
          util::Deadline::cancelled_by(&snap_ref->cancelled);

      TargetFacilities fx;
      fx.rng = &rng;
      fx.counters = &result->counters;
      fx.store = store.get();
      fx.pool = pool.get();
      fx.good_machine = snap_ref->good.get();
      fx.good_state = snap_ref->good_state;
      fx.faulty_state = faulty_state;
      fx.launch_prev = launch_prev;
      fx.deadline = &deadline;
      fx.ga_parallel.threads = 1;  // the lane itself is the parallelism

      pool->begin_peak_window();
      const std::uint64_t acquires_before = pool->acquires();
      result->tr = solve_target(f, j, *pass_ptr, fx);
      result->pool_acquires = pool->acquires() - acquires_before;
      result->pool_peak = pool->peak_outstanding();
      result->rng_words = rng.state_words();
      result->rng_consumed = result->rng_words != snap_ref->rng_words;
      result->store_end_revision = store->revision();
      result->store = std::move(store);
      lane_pools->release(std::move(pool));
    });
    ++spec_stats_.speculated;
    inflight.push_back(std::move(t));
  };

  auto top_up = [&](std::size_t frontier) {
    if (next_spec < frontier) next_spec = frontier;
    while (inflight.size() < window && next_spec < fm.size()) {
      const std::size_t j = next_spec++;
      // Eligibility is epoch-invariant: statuses and the drop list only
      // change at commits (which bump the epoch and clear the window) or
      // when a fault resolves itself, so a launched task's fault is still
      // an undetected target when the scan reaches it.
      if (fm.status(j) != FaultStatus::kUndetected) continue;
      if (s.simulator().detected()[j]) continue;
      launch(j);
    }
  };

  // Commits a finished, epoch-valid lane result, replaying exactly the
  // serial wrapper's observable sequence (fold counters, advance the RNG,
  // fold store stats + adopt content, commit the test, fold pool demand,
  // fire the observer).
  auto commit_spec = [&](SpecTask& t) {
    SpecResult& r = *t.result;
    // Lane counter deltas; the absolute pool mirrors survive because the
    // lane never writes det_model_builds/acquires (delta 0).
    s.counters() += r.counters;
    if (r.rng_consumed) rng_.set_state_words(r.rng_words);
    state::StateStore& master = s.state_store();
    state::StateStoreStats stats_delta = r.store->stats();
    stats_delta -= t.snap->store_stats;
    master.apply_stats_delta(stats_delta);
    if (r.store_end_revision != t.snap->store_revision) {
      // Within an epoch the master's shared content equals the snapshot's
      // (shared writes always end the epoch), so adopting the clone's shared
      // content wholesale equals replaying the lane's inserts on the master.
      master.adopt_content(*r.store);
    }
    // The fault's own forward slot is private: earlier commits of this epoch
    // may have filled other slots on the master, so merge just this one.
    master.adopt_forward(*r.store, t.fault_index);
    if (r.tr.outcome.detected) s.commit_test(std::move(r.tr.candidate));
    fold_pool_window(r.pool_acquires, r.pool_peak);
    mirror_pool_counters(s.counters());
    if (s.observer()) s.observer()->on_target_end(s, r.tr.effort);
    ++spec_stats_.committed;
    return r.tr.outcome;
  };

  auto drain = [&]() {
    snap->cancelled.store(true, std::memory_order_relaxed);
    while (!inflight.empty()) {
      zombies.push_back(std::move(inflight.front()));
      inflight.pop_front();
    }
    for (SpecTask& t : zombies) {
      t.done.wait();
      account_discarded(t);
    }
    zombies.clear();
  };

  try {
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

      top_up(i);

      // Uniform mutation probe around the resolve: an epoch ends exactly
      // when committed state that another fault's solve reads has changed.
      const std::array<std::uint64_t, 4> rng_before = rng_.state_words();
      const std::uint64_t revision_before = s.state_store().revision();
      const long tests_before = s.counters().committed_tests;

      TargetOutcome outcome;
      if (!inflight.empty() && inflight.front().fault_index == i) {
        SpecTask t = std::move(inflight.front());
        inflight.pop_front();
        t.done.get();  // rethrows a lane failure
        if (t.snap->epoch == epoch) {
          outcome = commit_spec(t);
        } else {
          account_discarded(t);
          outcome = target_fault(s, i, pass);  // exact serial recompute
        }
      } else {
        outcome = target_fault(s, i, pass);
      }
      resolve_target(s, i, outcome);
      fm.set_pass_cursor(i + 1);
      // One fully-completed unit of work: statuses applied, detections
      // absorbed, cursor advanced — a consistent checkpoint point.  A
      // mid-pass snapshot records only committed state; in-flight
      // speculation is recomputed after a resume.
      s.checkpoint_tick();

      const bool mutated = rng_.state_words() != rng_before ||
                           s.state_store().revision() != revision_before ||
                           s.counters().committed_tests != tests_before;
      if (mutated) {
        ++epoch;
        ++spec_stats_.epochs;
        snap->cancelled.store(true, std::memory_order_relaxed);
        while (!inflight.empty()) {
          zombies.push_back(std::move(inflight.front()));
          inflight.pop_front();
        }
        // Reap whatever already finished so the zombie list stays small;
        // the rest sees the cancel flag and winds down on its own.
        for (auto it = zombies.begin(); it != zombies.end();) {
          if (it->done.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            account_discarded(*it);
            it = zombies.erase(it);
          } else {
            ++it;
          }
        }
        next_spec = i + 1;
        snap = make_snapshot();
      }
    }
  } catch (...) {
    // Lane tasks reference this frame's pools and snapshot; never unwind
    // past them while a task is still running.
    drain();
    throw;
  }
  drain();
}

}  // namespace gatpg::hybrid
