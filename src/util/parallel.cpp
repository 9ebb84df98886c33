#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace gatpg::util {

unsigned ParallelConfig::resolved() const {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned TargetParallelConfig::resolved_lanes() const {
  if (lanes != 0) return lanes;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::ensure_workers(unsigned n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < n) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

unsigned ThreadPool::workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<unsigned>(workers_.size());
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

ThreadPool& shared_pool() {
  static ThreadPool pool;
  return pool;
}

namespace {

std::size_t num_chunks(std::size_t n_items, std::size_t chunk) {
  return chunk == 0 ? 0 : (n_items + chunk - 1) / chunk;
}

}  // namespace

unsigned max_lanes(const ParallelConfig& config, std::size_t n_items,
                   std::size_t chunk) {
  const std::size_t chunks = num_chunks(n_items, chunk);
  const unsigned threads = config.resolved();
  if (threads <= 1 || chunks <= 1) return 1;
  return static_cast<unsigned>(
      std::min<std::size_t>(threads, chunks));
}

void parallel_for_chunks(ThreadPool& pool, unsigned threads,
                         std::size_t n_items, std::size_t chunk,
                         const ChunkFn& fn) {
  const std::size_t chunks = num_chunks(n_items, chunk);
  const unsigned lanes =
      threads <= 1
          ? 1
          : static_cast<unsigned>(std::min<std::size_t>(threads, chunks));

  // Lanes claim chunks in ascending order from one shared counter.
  std::atomic<std::size_t> next{0};
  auto run_lane = [&](unsigned lane) {
    for (std::size_t ci = next++; ci < chunks; ci = next++) {
      fn(ci, ci * chunk, std::min(n_items, (ci + 1) * chunk), lane);
    }
  };

  if (lanes <= 1) {
    run_lane(0);
    return;
  }

  pool.ensure_workers(lanes - 1);
  std::vector<std::future<void>> pending;
  pending.reserve(lanes - 1);
  for (unsigned lane = 1; lane < lanes; ++lane) {
    pending.push_back(pool.submit([&run_lane, lane] { run_lane(lane); }));
  }

  // All lanes must finish before any exception propagates: they reference
  // the caller's stack.
  std::exception_ptr err;
  try {
    run_lane(0);
  } catch (...) {
    err = std::current_exception();
  }
  for (auto& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);
}

void parallel_for_chunks(const ParallelConfig& config, std::size_t n_items,
                         std::size_t chunk, const ChunkFn& fn) {
  parallel_for_chunks(shared_pool(), config.resolved(), n_items, chunk, fn);
}

}  // namespace gatpg::util
