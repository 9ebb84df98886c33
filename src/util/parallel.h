// Reusable parallel-execution layer: a persistent worker pool plus a chunked
// parallel-for whose lanes claim chunks from a shared counter, shared by
// every data-parallel loop in the library (PROOFS fault-group sweeps, GA
// fitness batches).
//
// Design rules that every user of this header relies on:
//   * Parallelism is only ever over *disjoint* simulator instances / output
//     slots; workers never share mutable state.  Anything order-sensitive
//     (detection lists, early-exit winners) is produced per-chunk and merged
//     serially in chunk order by the caller, so results are bit-identical to
//     the serial sweep for any thread count.
//   * `ParallelConfig{.threads = 1}` never touches the pool at all: the loop
//     body runs inline on the calling thread, chunk 0..n-1 in order — the
//     exact legacy code path.
//   * Lanes, not threads, are the unit of scratch ownership: a loop over C
//     chunks with T threads uses L = min(T, C) lanes.  Each lane claims the
//     next unclaimed chunk (in ascending chunk order) whenever it finishes
//     one, so a lane that drew cheap chunks takes more of them, and which
//     lane runs which chunk varies from run to run.  A lane still runs its
//     chunks strictly one after another, so per-lane scratch (e.g. a
//     thread-local SequenceSimulator) is safe and reusable, but nothing
//     observable may depend on the chunk-to-lane mapping.  Lane 0 always
//     runs on the calling thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace gatpg::util {

/// Thread-count policy threaded through the engines and bench harnesses.
struct ParallelConfig {
  /// 0 = one lane per hardware thread; 1 = serial (exact legacy path);
  /// N > 1 = at most N lanes.  Values above hardware_concurrency are
  /// honored (useful for determinism tests on small machines).
  unsigned threads = 0;

  /// The effective thread count (0 resolved to hardware_concurrency).
  unsigned resolved() const;
};

/// Lane policy for speculative per-fault targeting in the deterministic
/// passes (hybrid::HybridEngine).  Orthogonal to ParallelConfig, which
/// governs data-parallel inner loops (fault sim, GA fitness): `lanes` is
/// the number of faults solved concurrently, each on its own lane-local
/// engine state, with results committed strictly in fault order so the run
/// stays bit-identical to serial.
struct TargetParallelConfig {
  /// 1 = each target solved inline by the pass scan (no lane pool, no
  /// snapshots); 0 = one lane per hardware thread; N > 1 = N lanes.
  unsigned lanes = 1;

  /// The effective lane count (0 resolved to hardware_concurrency).
  unsigned resolved_lanes() const;
};

/// A persistent pool of worker threads.  Tasks are arbitrary callables;
/// exceptions thrown by a task are captured and rethrown from the returned
/// future's get().  The pool only ever grows (ensure_workers) and joins all
/// workers on destruction.
class ThreadPool {
 public:
  ThreadPool() = default;
  explicit ThreadPool(unsigned workers) { ensure_workers(workers); }
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Grows the pool to at least `n` workers (never shrinks).
  void ensure_workers(unsigned n);

  unsigned workers() const;

  /// Enqueues a task for execution on some worker.
  std::future<void> submit(std::function<void()> task);

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// The process-wide pool used by parallel_for_chunks.  Created empty on
/// first use; grows on demand to the largest lane count ever requested.
ThreadPool& shared_pool();

/// Chunk body: `fn(chunk_index, begin, end, lane)` processes items
/// [begin, end).  `lane` identifies which of the (at most `threads`)
/// sequential streams is running the chunk; chunks with the same lane never
/// run concurrently, so lane-indexed scratch needs no locking.
using ChunkFn = std::function<void(std::size_t chunk_index, std::size_t begin,
                                   std::size_t end, unsigned lane)>;

/// Number of lanes a loop over `n_items` in chunks of `chunk` will use —
/// callers size lane-indexed scratch with this before the loop.
unsigned max_lanes(const ParallelConfig& config, std::size_t n_items,
                   std::size_t chunk);

/// Runs `fn` over ceil(n_items / chunk) chunks.  Every lane loops claiming
/// the lowest unclaimed chunk from a shared counter until none is left, so
/// the work balances itself when chunks differ in cost.  With one lane the
/// body runs inline, chunks in ascending order — the serial code path.  The
/// calling thread always participates as lane 0; the shared pool supplies
/// the rest.
/// Blocks until every chunk completed; the first exception thrown by any
/// chunk is rethrown here after all lanes have finished.
void parallel_for_chunks(const ParallelConfig& config, std::size_t n_items,
                         std::size_t chunk, const ChunkFn& fn);

/// Same, against an explicit pool with an explicit lane budget (exposed for
/// the ThreadPool unit tests; the engines use the config overload).
void parallel_for_chunks(ThreadPool& pool, unsigned threads,
                         std::size_t n_items, std::size_t chunk,
                         const ChunkFn& fn);

}  // namespace gatpg::util
