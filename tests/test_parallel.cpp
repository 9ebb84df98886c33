// Worker-pool layer tests: ThreadPool mechanics (reuse, exception
// propagation), parallel_for_chunks coverage/lane guarantees, and the
// load-bearing determinism contract — fault simulation, what_if grading,
// GA state justification, and the full hybrid ATPG must produce
// bit-identical results at threads=1 (the serial legacy path) and
// threads=4 (forced parallel, regardless of core count).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "gen/registry.h"
#include "gen/s27.h"
#include "helpers/random_circuit.h"
#include "hybrid/ga_justify.h"
#include "hybrid/hybrid_atpg.h"
#include "util/parallel.h"

namespace gatpg::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReusableAcrossSubmissionRounds) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 20; ++i) {
      futures.push_back(pool.submit([&count] { ++count; }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  auto bad = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker survives the exception and keeps serving tasks.
  auto good = pool.submit([] {});
  EXPECT_NO_THROW(good.get());
}

TEST(ThreadPool, EnsureWorkersOnlyGrows) {
  ThreadPool pool;
  EXPECT_EQ(pool.workers(), 0u);
  pool.ensure_workers(2);
  EXPECT_EQ(pool.workers(), 2u);
  pool.ensure_workers(1);
  EXPECT_EQ(pool.workers(), 2u);
  pool.ensure_workers(4);
  EXPECT_EQ(pool.workers(), 4u);
}

TEST(ParallelForChunks, CoversEveryChunkExactlyOnce) {
  const std::size_t n_items = 1000;
  const std::size_t chunk = 64;
  std::mutex mu;
  std::set<std::size_t> seen_chunks;
  std::vector<char> item_covered(n_items, 0);
  parallel_for_chunks(
      ParallelConfig{4}, n_items, chunk,
      [&](std::size_t ci, std::size_t begin, std::size_t end, unsigned lane) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_LT(lane, 4u);
        EXPECT_EQ(begin, ci * chunk);
        EXPECT_LE(end, n_items);
        EXPECT_TRUE(seen_chunks.insert(ci).second) << "chunk ran twice";
        for (std::size_t i = begin; i < end; ++i) item_covered[i] = 1;
      });
  EXPECT_EQ(seen_chunks.size(), (n_items + chunk - 1) / chunk);
  for (std::size_t i = 0; i < n_items; ++i) {
    EXPECT_TRUE(item_covered[i]) << "item " << i << " missed";
  }
}

TEST(ParallelForChunks, SerialConfigRunsInlineInOrder) {
  std::vector<std::size_t> order;
  parallel_for_chunks(
      ParallelConfig{1}, 300, 64,
      [&](std::size_t ci, std::size_t, std::size_t, unsigned lane) {
        EXPECT_EQ(lane, 0u);
        order.push_back(ci);
      });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForChunks, LanesRunChunksSequentially) {
  // Each lane's chunks must never overlap in time.
  const unsigned threads = 4;
  std::vector<std::atomic<int>> lane_active(threads);
  std::atomic<bool> overlap{false};
  parallel_for_chunks(
      ParallelConfig{threads}, 64 * 32, 64,
      [&](std::size_t, std::size_t, std::size_t, unsigned lane) {
        if (lane_active[lane].fetch_add(1) != 0) overlap = true;
        lane_active[lane].fetch_sub(1);
      });
  EXPECT_FALSE(overlap.load());
}

TEST(ParallelForChunks, UnevenChunksClaimedOnceAndMergeLikeSerial) {
  // Every seventh chunk costs a thousand times more than the rest, so lanes
  // that draw cheap chunks claim more of them.  Each chunk's output is a pure
  // function of its items; merged in chunk order, the outputs must equal the
  // serial run's whatever lane ran which chunk.
  const std::size_t chunk = 8;
  const std::size_t n_items = 8 * 61 + 3;  // a short last chunk
  const std::size_t n_chunks = (n_items + chunk - 1) / chunk;
  auto run = [&](unsigned threads) {
    std::vector<std::uint64_t> out(n_chunks);
    std::vector<std::atomic<int>> runs(n_chunks);
    std::vector<std::atomic<int>> lane_busy(threads);
    std::atomic<bool> overlap{false};
    parallel_for_chunks(
        ParallelConfig{threads}, n_items, chunk,
        [&](std::size_t ci, std::size_t begin, std::size_t end,
            unsigned lane) {
          ASSERT_LT(lane, threads);
          if (lane_busy[lane].fetch_add(1) != 0) overlap = true;
          runs[ci].fetch_add(1);
          const std::uint64_t rounds = ci % 7 == 0 ? 20000 : 20;
          std::uint64_t h = ci;
          for (std::size_t i = begin; i < end; ++i) {
            for (std::uint64_t r = 0; r < rounds; ++r) {
              h = h * 6364136223846793005ULL + i + r;
            }
          }
          out[ci] = h;
          lane_busy[lane].fetch_sub(1);
        });
    EXPECT_FALSE(overlap.load()) << threads << " threads";
    for (std::size_t ci = 0; ci < n_chunks; ++ci) {
      EXPECT_EQ(runs[ci].load(), 1) << "chunk " << ci << ", " << threads
                                    << " threads";
    }
    return out;
  };
  const auto serial = run(1);
  for (const unsigned threads : {2u, 4u, 7u}) {
    EXPECT_EQ(run(threads), serial) << threads << " threads";
  }
}

TEST(ParallelForChunks, PropagatesChunkExceptions) {
  EXPECT_THROW(
      parallel_for_chunks(ParallelConfig{4}, 640, 64,
                          [&](std::size_t ci, std::size_t, std::size_t,
                              unsigned) {
                            if (ci == 3) throw std::runtime_error("chunk");
                          }),
      std::runtime_error);
}

TEST(ParallelConfigTest, ZeroResolvesToHardware) {
  EXPECT_GE(ParallelConfig{0}.resolved(), 1u);
  EXPECT_EQ(ParallelConfig{1}.resolved(), 1u);
  EXPECT_EQ(ParallelConfig{6}.resolved(), 6u);
}

}  // namespace
}  // namespace gatpg::util

namespace gatpg::fault {
namespace {

// A circuit large enough for several 64-fault groups, so threads=4 really
// fans out.
netlist::Circuit grouped_circuit(std::uint64_t seed) {
  test::RandomCircuitSpec spec;
  spec.seed = seed;
  spec.num_inputs = 6;
  spec.num_ffs = 5;
  spec.num_gates = 90;
  spec.num_outputs = 4;
  return test::make_random_circuit(spec);
}

TEST(ParallelFaultSim, RunBitIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const auto c = grouped_circuit(seed);
    const auto faults = collapse(c).faults;
    ASSERT_GT(faults.size(), 64u) << "want multiple fault groups";

    FaultSimulator serial(c, faults, {1});
    FaultSimulator parallel(c, faults, {4});
    util::Rng rng_a(seed * 3), rng_b(seed * 3);
    for (int step = 0; step < 4; ++step) {
      const auto seq = test::random_sequence(c, rng_a, 9, 0.1);
      const auto seq_b = test::random_sequence(c, rng_b, 9, 0.1);
      ASSERT_EQ(seq, seq_b);
      // Identical newly-detected lists, in identical order.
      EXPECT_EQ(serial.run(seq), parallel.run(seq));
      EXPECT_EQ(serial.detected(), parallel.detected());
      EXPECT_EQ(serial.detected_count(), parallel.detected_count());
      EXPECT_EQ(serial.good_state(), parallel.good_state());
    }
  }
}

TEST(ParallelFaultSim, WhatIfBitIdenticalAcrossThreadCounts) {
  const auto c = grouped_circuit(21);
  const auto faults = collapse(c).faults;
  std::vector<std::size_t> all(faults.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;

  FaultSimulator serial(c, faults, {1});
  FaultSimulator parallel(c, faults, {4});
  util::Rng rng(99);
  // Establish identical session state first, then grade probes.
  const auto warmup = test::random_sequence(c, rng, 6, 0.05);
  serial.run(warmup);
  parallel.run(warmup);
  for (int i = 0; i < 3; ++i) {
    const auto probe = test::random_sequence(c, rng, 7, 0.1);
    const auto a = serial.what_if(all, probe);
    const auto b = parallel.what_if(all, probe);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.state_effects, b.state_effects);
  }
}

TEST(ParallelFaultSim, OddThreadCountAlsoIdentical) {
  const auto c = grouped_circuit(31);
  const auto faults = collapse(c).faults;
  FaultSimulator serial(c, faults, {1});
  FaultSimulator parallel(c, faults, {3});
  util::Rng rng(7);
  const auto seq = test::random_sequence(c, rng, 12, 0.1);
  EXPECT_EQ(serial.run(seq), parallel.run(seq));
  EXPECT_EQ(serial.detected(), parallel.detected());
}

}  // namespace
}  // namespace gatpg::fault

namespace gatpg::hybrid {
namespace {

using sim::State3;
using sim::V3;

GaJustifyResult justify_with_threads(const netlist::Circuit& c,
                                     const fault::Fault& f,
                                     const State3& target,
                                     const State3& current,
                                     unsigned threads,
                                     std::uint64_t seed) {
  GaJustifyConfig config;
  config.population = 128;  // two sub-batches, so threads=4 actually splits
  config.generations = 6;
  config.sequence_length = 8;
  config.seed = seed;
  config.parallel.threads = threads;
  const State3 all_x(c.flip_flops().size(), V3::kX);
  return GaStateJustifier(c).justify(f, target, all_x, current, config,
                                     util::Deadline::unlimited());
}

TEST(ParallelGaJustify, ResultsBitIdenticalAcrossThreadCounts) {
  const auto c = gen::make_s27();
  const fault::Fault f{c.primary_outputs()[0], fault::kOutputPin, false};
  const State3 current(c.flip_flops().size(), V3::kX);
  // Both a reachable target (success path, early exit) and an impossible
  // one (failure path, full fitness evaluation) must match bit-for-bit.
  const std::vector<State3> targets = {
      State3{V3::k0, V3::k1, V3::k0},
      State3{V3::k1, V3::k1, V3::k1},
      State3{V3::kX, V3::k1, V3::kX},
  };
  for (std::uint64_t seed : {1u, 5u, 9u}) {
    for (const State3& target : targets) {
      const auto serial = justify_with_threads(c, f, target, current, 1, seed);
      for (unsigned threads : {2u, 4u}) {
        const auto parallel =
            justify_with_threads(c, f, target, current, threads, seed);
        EXPECT_EQ(serial.success, parallel.success);
        EXPECT_EQ(serial.sequence, parallel.sequence);
        EXPECT_DOUBLE_EQ(serial.best_fitness, parallel.best_fitness);
        EXPECT_EQ(serial.evaluations, parallel.evaluations);
        EXPECT_EQ(serial.generations_run, parallel.generations_run);
      }
    }
  }
}

TEST(ParallelHybridAtpg, TestSetBitIdenticalAcrossThreadCounts) {
  const auto c = gen::make_s27();
  auto run_with = [&](unsigned threads) {
    HybridConfig config;
    config.schedule = session::PassSchedule::ga_hitec();
    // Deterministic resource limits only: wall-clock deadlines could expire
    // differently between the two runs and mask a real divergence (s27 is
    // small enough to run uncapped).
    for (auto& pass : config.schedule.passes) {
      pass.time_limit_s = 0;
      pass.pass_budget_s = 0;
    }
    config.seed = 3;
    config.parallel.threads = threads;
    return HybridAtpg(c, config).run();
  };
  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  EXPECT_EQ(serial.test_set, parallel.test_set);
  EXPECT_EQ(serial.fault_state, parallel.fault_state);
  EXPECT_EQ(serial.detected(), parallel.detected());
  EXPECT_EQ(serial.untestable(), parallel.untestable());
}

}  // namespace
}  // namespace gatpg::hybrid
