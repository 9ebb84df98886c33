// Substrate microbenchmark: the 64-way bit-parallel GA fitness kernel
// ("the bitwise parallelism of the computer word is used, which allows 32
// sequences to be simulated in parallel" — §IV-A; we use 64-bit words).
// Compares one packed batch against 64 scalar broadcast runs.
#include <benchmark/benchmark.h>

#include "common.h"
#include "helpers_bench.h"
#include "sim/seqsim.h"

namespace {

using namespace gatpg;

void BM_PackedBatch64(benchmark::State& state, const char* name) {
  const auto c = bench::load_circuit(name);
  util::Rng rng(7);
  const std::size_t npi = c.primary_inputs().size();
  const unsigned len = 32;
  // Pre-generate 64 packed vectors per time step.
  std::vector<std::vector<sim::PackedV3>> packed(len);
  for (auto& words : packed) {
    words.resize(npi);
    for (auto& w : words) w = {rng.word(), 0};
  }
  for (auto& words : packed) {
    for (auto& w : words) w.v0 = ~w.v1;
  }
  for (auto _ : state) {
    sim::SequenceSimulator s(c);
    for (unsigned t = 0; t < len; ++t) {
      s.apply_packed(packed[t]);
      s.clock();
    }
    benchmark::DoNotOptimize(s.state(0));
  }
  state.counters["candidate_vectors_per_s"] = benchmark::Counter(
      64.0 * len, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_ScalarRuns64(benchmark::State& state, const char* name) {
  const auto c = bench::load_circuit(name);
  util::Rng rng(7);
  const unsigned len = 32;
  std::vector<sim::Sequence> seqs(64);
  for (auto& seq : seqs) seq = bench::random_sequence(c, rng, len);
  for (auto _ : state) {
    for (const auto& seq : seqs) {
      sim::SequenceSimulator s(c);
      s.run_sequence(seq);
      benchmark::DoNotOptimize(s.state(0));
    }
  }
  state.counters["candidate_vectors_per_s"] = benchmark::Counter(
      64.0 * len, benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK_CAPTURE(BM_PackedBatch64, g298, "g298")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScalarRuns64, g298, "g298")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PackedBatch64, g1423, "g1423")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScalarRuns64, g1423, "g1423")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
