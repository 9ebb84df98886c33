#include "service/shard.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>

#include "netlist/depth.h"
#include "serialize/archive.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gatpg::service {

namespace {

std::string shard_snapshot_path(const std::string& base, unsigned shard) {
  return base + ".shard" + std::to_string(shard);
}

bool file_exists(const std::string& path) {
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    return true;
  }
  return false;
}

/// Per-shard RNG stream: shard index folded into the job seed so shards are
/// independent but the whole job is a pure function of (config, shards).
std::uint64_t shard_seed(std::uint64_t base, unsigned shard) {
  return base ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(shard) + 1));
}

/// Forwards pass-end rows from one shard session to the job's event sink.
class ShardProgress : public session::ProgressObserver {
 public:
  ShardProgress(unsigned shard, const ShardEventFn& events)
      : shard_(shard), events_(events) {}

  void on_pass_end(const session::Session&, std::size_t pass_index,
                   const session::PassOutcome& outcome) override {
    if (events_) events_(ShardEvent{shard_, pass_index, outcome});
  }

 private:
  unsigned shard_;
  const ShardEventFn& events_;
};

session::SessionResult merge_shards(
    const fault::FaultList& full, unsigned shards,
    const std::vector<session::SessionResult>& per_shard) {
  session::SessionResult merged;
  merged.total_faults = full.size();

  // Statuses interleave back to full-list order (shard s, position p owns
  // full index p * shards + s).
  merged.fault_state.resize(full.size(), session::FaultStatus::kUndetected);
  for (std::size_t i = 0; i < full.size(); ++i) {
    const unsigned s = static_cast<unsigned>(i % shards);
    const std::size_t p = i / shards;
    if (p < per_shard[s].fault_state.size()) {
      merged.fault_state[i] = per_shard[s].fault_state[p];
    }
  }

  // Test set, segments, counters, rounds: shard order, which is fixed by
  // the partition and independent of which worker ran what.
  std::size_t max_passes = 0;
  for (const session::SessionResult& r : per_shard) {
    merged.test_set.insert(merged.test_set.end(), r.test_set.begin(),
                           r.test_set.end());
    merged.segments.insert(merged.segments.end(), r.segments.begin(),
                           r.segments.end());
    merged.counters += r.counters;
    merged.rounds += r.rounds;
    merged.evaluations += r.evaluations;
    max_passes = std::max(max_passes, r.passes.size());
  }

  // Pass rows are cumulative per shard; the merged row for pass p sums each
  // shard's row at min(p, last) so shards with shorter schedules carry
  // their final state forward.  time_s is the slowest shard (wall clock).
  for (std::size_t p = 0; p < max_passes; ++p) {
    session::PassOutcome row;
    for (const session::SessionResult& r : per_shard) {
      if (r.passes.empty()) continue;
      const session::PassOutcome& sr =
          r.passes[std::min(p, r.passes.size() - 1)];
      row.detected += sr.detected;
      row.vectors += sr.vectors;
      row.untestable += sr.untestable;
      row.time_s = std::max(row.time_s, sr.time_s);
    }
    merged.passes.push_back(row);
  }

  // Merged digests: shard-order fold of the per-shard component digests —
  // the cheap identity the worker-count-invariance test compares.
  serialize::Digest df, dt, ds;
  for (const session::SessionResult& r : per_shard) {
    df.add_u64(r.digests.faults);
    dt.add_u64(r.digests.tests);
    ds.add_u64(r.digests.store);
  }
  merged.digests.faults = df.value();
  merged.digests.tests = dt.value();
  merged.digests.store = ds.value();
  return merged;
}

}  // namespace

fault::FaultList shard_fault_list(const fault::FaultList& full,
                                  unsigned shards, unsigned shard) {
  fault::FaultList part;
  for (std::size_t i = shard; i < full.size(); i += shards) {
    part.faults.push_back(full.faults[i]);
    part.class_sizes.push_back(full.class_sizes[i]);
  }
  return part;
}

bool WarmStoreCache::seed(session::Session& session, unsigned shards,
                          unsigned shard, std::uint64_t circuit_key) {
  const auto it = entries_.find({shards, shard});
  if (it == entries_.end()) return false;
  const Entry& entry = it->second;
  const netlist::Circuit& c = session.circuit();
  if (entry.pis != c.primary_inputs().size() ||
      entry.ffs != c.flip_flops().size()) {
    // Interface changed: cached cubes/sequences have the wrong shape.
    entries_.erase(it);
    return false;
  }
  try {
    serialize::Reader r(entry.archive);
    session.state_store().load(r);
  } catch (const serialize::SnapshotError&) {
    // Config mismatch or corruption: discard whatever a partial load left
    // behind so the shard genuinely starts cold.
    session.state_store().clear();
    entries_.erase(it);
    return false;
  }
  if (entry.circuit_key != circuit_key) {
    // Same interface, different netlist revision: keep only the knowledge
    // that is re-verified on use.
    session.state_store().drop_unverified();
  }
  return true;
}

void WarmStoreCache::capture(const session::Session& session, unsigned shards,
                             unsigned shard, std::uint64_t circuit_key) {
  if (!session.state_store().enabled()) return;
  serialize::Writer w;
  session.state_store().save(w);
  Entry entry;
  entry.archive = w.finish();
  entry.circuit_key = circuit_key;
  entry.pis = session.circuit().primary_inputs().size();
  entry.ffs = session.circuit().flip_flops().size();
  entries_[{shards, shard}] = std::move(entry);
}

ShardedResult run_sharded(const netlist::Circuit& c,
                          const fault::FaultList& full,
                          const ShardJobConfig& job,
                          const ShardEventFn& events, WarmStoreCache* warm) {
  const unsigned shards = std::max(1u, job.shards);
  const unsigned depth = netlist::sequential_depth(c);
  const std::uint64_t circuit_key = fault::identity_digest(full);

  // Worker count is fixed up front so the targeting-lane budget below can
  // see it; it is pure execution parallelism and never affects results.
  const unsigned requested =
      job.workers == 0 ? util::ParallelConfig{}.resolved() : job.workers;
  const unsigned workers = std::max(1u, std::min(requested, shards));

  // Per-shard speculative targeting lanes, clamped so workers × lanes never
  // oversubscribes the job's thread budget.  Clamping is determinism-safe:
  // the lane count never changes results, only wall clock.
  const unsigned budget = job.max_pool_threads
                              ? job.max_pool_threads
                              : util::ParallelConfig{}.resolved();
  unsigned lanes = job.hybrid.target_parallel.resolved_lanes();
  if (lanes > 1 && workers * lanes > budget) {
    const unsigned clamped = std::max(1u, budget / workers);
    util::log_warn() << "run_sharded: " << workers << " workers x " << lanes
                     << " targeting lanes exceeds thread budget " << budget
                     << "; clamping lanes to " << clamped;
    lanes = clamped;
  }

  // Phase 1 (serial): one session + engine per shard, resumed from its
  // snapshot, or else warm-seeded as requested.
  // HybridEngine keeps references to its config and RNG, so both live in
  // parallel arrays.
  std::vector<hybrid::HybridConfig> configs(shards, job.hybrid);
  std::vector<std::unique_ptr<util::Rng>> rngs(shards);
  std::vector<std::unique_ptr<session::Session>> sessions(shards);
  std::vector<std::unique_ptr<hybrid::HybridEngine>> engines(shards);
  std::vector<std::unique_ptr<ShardProgress>> observers(shards);
  for (unsigned s = 0; s < shards; ++s) {
    hybrid::HybridConfig& cfg = configs[s];
    cfg.seed = shard_seed(job.hybrid.seed, s);
    cfg.target_parallel.lanes = lanes;

    session::SessionConfig scfg = cfg.session_config();
    if (!job.checkpoint_path.empty()) {
      scfg.checkpoint.path = shard_snapshot_path(job.checkpoint_path, s);
      scfg.checkpoint.interval_s = job.checkpoint_interval_s;
      scfg.checkpoint.every_ticks = job.checkpoint_every_ticks;
    }

    rngs[s] = std::make_unique<util::Rng>(cfg.seed);
    sessions[s] = std::make_unique<session::Session>(
        c, shard_fault_list(full, shards, s), scfg);
    engines[s] =
        std::make_unique<hybrid::HybridEngine>(c, cfg, depth, *rngs[s]);
    observers[s] = std::make_unique<ShardProgress>(s, events);
    sessions[s]->set_observer(observers[s].get());

    bool resumed = false;
    if (job.resume && !job.checkpoint_path.empty()) {
      const std::string snap = shard_snapshot_path(job.checkpoint_path, s);
      if (file_exists(snap)) {
        sessions[s]->resume(snap, *engines[s]);
        resumed = true;
      }
    }
    if (!resumed && warm) warm->seed(*sessions[s], shards, s, circuit_key);
  }

  // Phase 2 (parallel): worker w runs shards w, w+W, ... sequentially on
  // its own thread; shard slots are disjoint, so no synchronization beyond
  // join is needed and results cannot depend on W.  A shard whose run
  // throws (e.g. its auto-checkpoint path is unwritable) must not let the
  // exception escape its thread — that would std::terminate the process —
  // so each lane captures the failure, every lane is joined, and the first
  // failing shard's exception is rethrown to the caller afterwards.
  std::vector<session::SessionResult> results(shards);
  std::vector<std::exception_ptr> errors(shards);
  auto run_lane = [&](unsigned w) {
    for (unsigned s = w; s < shards; s += workers) {
      try {
        results[s] = sessions[s]->run(*engines[s], configs[s].schedule);
      } catch (...) {
        errors[s] = std::current_exception();
        return;  // the job is failing; don't burn time on this lane's rest
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(run_lane, w);
  run_lane(0);
  for (std::thread& t : pool) t.join();
  for (unsigned s = 0; s < shards; ++s) {
    // Lowest shard index wins so the reported error is worker-count
    // independent.
    if (errors[s]) std::rethrow_exception(errors[s]);
  }

  // Phase 3 (serial): capture warm stores and merge in shard order.
  if (warm) {
    for (unsigned s = 0; s < shards; ++s) {
      warm->capture(*sessions[s], shards, s, circuit_key);
    }
  }
  ShardedResult out;
  out.merged = merge_shards(full, shards, results);
  out.per_shard = std::move(results);
  return out;
}

}  // namespace gatpg::service
