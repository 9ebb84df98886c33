// Sharded job execution for the ATPG service: one job's fault list is
// partitioned across N independent shard sessions, shard sessions run on a
// bounded worker pool, and the per-shard results merge deterministically in
// shard order — the parallel-layer lane-merge discipline lifted to whole
// sessions.
//
// Determinism contract: the shard count is a *job parameter* (it changes
// which faults share a session, hence the results); the worker count is
// pure execution parallelism and never affects any output bit.  Worker w
// runs shards w, w+W, w+2W, ... strictly sequentially on its own thread and
// writes only its own shards' slots; the merge walks shards 0..N-1 in
// index order.  run_sharded(workers=1) is the reference serial execution
// every other worker count must match (test_service.cpp asserts equality
// through the SessionResult digest hooks).
//
// Each shard runs the full GA-HITEC engine over its sub-population with a
// shard-mixed RNG seed, its own checkpoint file (`<base>.shardK`), and —
// when a WarmStoreCache is supplied — a StateStore pre-seeded from the
// previous submission of the same (shards, shard) slot, with
// netlist-specific knowledge dropped when the fault-list identity changed
// (the successive-netlist-revision flow).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fault/faultlist.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/circuit.h"
#include "session/session.h"

namespace gatpg::service {

/// One job submission: the base engine configuration plus the shard/worker
/// split and the checkpoint policy applied to every shard session.
struct ShardJobConfig {
  /// Number of fault-list partitions (>= 1).  Part of the job identity:
  /// different shard counts legitimately produce different (all valid)
  /// results.
  unsigned shards = 1;
  /// Worker threads executing shard sessions (0 = one per hardware thread).
  /// Never affects results.
  unsigned workers = 1;
  /// Thread budget for workers × per-shard targeting lanes (0 = one per
  /// hardware thread).  When the requested combination would oversubscribe
  /// it, the per-shard lane count is clamped (with a logged warning)
  /// instead of silently spawning more threads than the budget; clamping is
  /// determinism-safe because the lane count never affects results.
  unsigned max_pool_threads = 0;
  /// Base engine configuration; each shard runs with seed mixed by its
  /// shard index so shard streams are independent.
  hybrid::HybridConfig hybrid;
  /// Checkpoint base path; shard K snapshots to "<path>.shardK".  Empty
  /// disables checkpointing.
  std::string checkpoint_path;
  double checkpoint_interval_s = 0.0;
  long checkpoint_every_ticks = 0;
  /// Resume each shard from its snapshot when the file exists (fresh start
  /// for shards without one, e.g. after a kill before their first
  /// checkpoint).
  bool resume = false;
};

/// Pass-end progress event forwarded from a shard session (delivered on the
/// worker thread running that shard; the sink must be thread-safe).
struct ShardEvent {
  unsigned shard = 0;
  std::size_t pass_index = 0;
  session::PassOutcome outcome;
};
using ShardEventFn = std::function<void(const ShardEvent&)>;

/// The deterministic merge of all shard results plus the per-shard detail.
struct ShardedResult {
  /// Full-fault-list-order result: statuses interleaved back to the
  /// original indices, test set and segments concatenated in shard order,
  /// counters summed, pass rows summed per pass index (time_s = max).
  session::SessionResult merged;
  std::vector<session::SessionResult> per_shard;
};

/// Round-robin partition: shard `shard` owns full-list faults shard,
/// shard + shards, shard + 2*shards, ... in ascending order (balances the
/// easy/hard mix across shards).
fault::FaultList shard_fault_list(const fault::FaultList& full,
                                  unsigned shards, unsigned shard);

/// Serialized StateStore snapshots carried across job submissions, keyed by
/// (shards, shard) so a resubmitted job finds the knowledge its shard
/// accumulated last time.  Single-threaded use only (the daemon seeds and
/// captures outside the worker phase).
class WarmStoreCache {
 public:
  /// Seeds `session`'s store from the cached slot, if any.  `circuit_key`
  /// identifies the netlist revision (fault::identity_digest of the full
  /// list): on mismatch the netlist-specific knowledge (unjustifiable
  /// proofs, forward solutions) is dropped after loading.  Entries whose
  /// PI/FF interface no longer matches, or whose store config differs, are
  /// discarded instead.  Returns true when the store was seeded.
  bool seed(session::Session& session, unsigned shards, unsigned shard,
            std::uint64_t circuit_key);
  /// Captures `session`'s store into the slot for the next submission.
  void capture(const session::Session& session, unsigned shards,
               unsigned shard, std::uint64_t circuit_key);

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::vector<std::uint8_t> archive;
    std::uint64_t circuit_key = 0;
    std::size_t pis = 0;
    std::size_t ffs = 0;
  };
  std::map<std::pair<unsigned, unsigned>, Entry> entries_;
};

/// Runs one sharded job to completion and merges.  `events` (optional)
/// receives per-pass progress from every shard; `warm` (optional) seeds
/// and re-captures each shard's StateStore.  Throws
/// serialize::SnapshotError when resume is requested and a snapshot exists
/// but fails its identity checks.
ShardedResult run_sharded(const netlist::Circuit& c,
                          const fault::FaultList& full,
                          const ShardJobConfig& job,
                          const ShardEventFn& events = {},
                          WarmStoreCache* warm = nullptr);

}  // namespace gatpg::service
