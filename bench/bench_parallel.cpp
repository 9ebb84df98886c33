// Thread-scaling bench for the worker-pool layer: the Table-II fault
// simulation workload (session-style FaultSimulator::run sweeps plus the
// what_if fitness kernel over the full fault list) on ISCAS-analog circuits
// at 1/2/4/8 threads.
//
// Emits BENCH_parallel.json with per-circuit wall-clock numbers and speedup
// curves relative to threads=1, and verifies on the way that detection
// counts and what_if results are bit-identical across thread counts (the
// layer's core invariant).  Exit status is nonzero on any mismatch.
//
// Usage: bench_parallel [--seed=N] [--full] [--vectors=N] [--repeat=N]
//                       [names...]
//   --full adds the largest analog (g5378).
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"
#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "helpers_bench.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace {

struct Sample {
  unsigned threads = 0;
  double run_s = 0.0;      // session sweep (FaultSimulator::run)
  double what_if_s = 0.0;  // fitness kernel (FaultSimulator::what_if)
  std::size_t detected = 0;
  unsigned what_if_detected = 0;
  unsigned what_if_effects = 0;
};

struct CircuitResult {
  std::string name;
  std::size_t faults = 0;
  std::vector<Sample> samples;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gatpg;

  std::vector<std::string> positional;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &positional);
  std::size_t vectors = 96;
  int repeat = 3;
  std::vector<std::string> names;
  for (const std::string& arg : positional) {
    if (arg.rfind("--vectors=", 0) == 0) {
      vectors = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::atoi(arg.c_str() + 9);
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) {
    names = {"g298", "g526", "g820", "g1423"};
    if (options.full) names.push_back("g5378");
  }
  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};

  std::printf("Parallel fault-simulation scaling (vectors=%zu, repeat=%d, "
              "hardware_concurrency=%u)\n\n",
              vectors, repeat, util::ParallelConfig{}.resolved());

  bool consistent = true;
  std::vector<CircuitResult> results;
  for (const std::string& name : names) {
    const auto c = bench::load_circuit(name);
    const auto faults = fault::collapse(c).faults;
    CircuitResult cr;
    cr.name = name;
    cr.faults = faults.size();

    std::vector<std::size_t> all_indices(faults.size());
    std::iota(all_indices.begin(), all_indices.end(), 0);

    for (const unsigned threads : thread_counts) {
      Sample sample;
      sample.threads = threads;
      fault::FaultSimulator fs(c, faults, {threads});

      // Session sweep: fresh session per repeat, several run() extensions
      // so persistent faulty state and fault dropping are exercised.
      double run_s = 0.0;
      for (int rep = 0; rep < repeat; ++rep) {
        fs.reset_all();
        util::Rng rng(options.seed);
        const util::Stopwatch sw;
        for (int chunk = 0; chunk < 4; ++chunk) {
          fs.run(bench::random_sequence(c, rng, vectors / 4));
        }
        run_s += sw.seconds();
        sample.detected = fs.detected_count();
      }
      sample.run_s = run_s / repeat;

      // Fitness kernel: what_if over the full fault list (the GA's
      // per-candidate grading workload), from the power-up session state.
      fs.reset_all();
      util::Rng rng(options.seed + 7);
      const auto probe = bench::random_sequence(c, rng, vectors / 4);
      double what_if_s = 0.0;
      for (int rep = 0; rep < repeat; ++rep) {
        const util::Stopwatch sw;
        const auto w = fs.what_if(all_indices, probe);
        what_if_s += sw.seconds();
        sample.what_if_detected = w.detected;
        sample.what_if_effects = w.state_effects;
      }
      sample.what_if_s = what_if_s / repeat;
      cr.samples.push_back(sample);
    }

    const Sample& base = cr.samples.front();
    for (const Sample& s : cr.samples) {
      if (s.detected != base.detected ||
          s.what_if_detected != base.what_if_detected ||
          s.what_if_effects != base.what_if_effects) {
        std::printf("ERROR: %s threads=%u diverges from threads=1 "
                    "(det %zu vs %zu, what_if %u/%u vs %u/%u)\n",
                    cr.name.c_str(), s.threads, s.detected, base.detected,
                    s.what_if_detected, s.what_if_effects,
                    base.what_if_detected, base.what_if_effects);
        consistent = false;
      }
      std::printf("%-8s threads=%u  run=%8.2fms (x%.2f)  "
                  "what_if=%8.2fms (x%.2f)  det=%zu\n",
                  cr.name.c_str(), s.threads, s.run_s * 1e3,
                  s.run_s > 0 ? base.run_s / s.run_s : 0.0,
                  s.what_if_s * 1e3,
                  s.what_if_s > 0 ? base.what_if_s / s.what_if_s : 0.0,
                  s.detected);
    }
    std::printf("\n");
    results.push_back(std::move(cr));
  }

  FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"parallel\",\n");
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n",
               util::ParallelConfig{}.resolved());
  std::fprintf(json, "  \"vectors\": %zu,\n  \"repeat\": %d,\n", vectors,
               repeat);
  std::fprintf(json, "  \"consistent_across_threads\": %s,\n",
               consistent ? "true" : "false");
  std::fprintf(json, "  \"circuits\": [\n");
  for (std::size_t ci = 0; ci < results.size(); ++ci) {
    const CircuitResult& cr = results[ci];
    const Sample& base = cr.samples.front();
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"faults\": %zu, \"results\": [\n",
                 cr.name.c_str(), cr.faults);
    for (std::size_t si = 0; si < cr.samples.size(); ++si) {
      const Sample& s = cr.samples[si];
      std::fprintf(
          json,
          "      {\"threads\": %u, \"run_s\": %.6f, \"what_if_s\": %.6f, "
          "\"speedup_run\": %.3f, \"speedup_what_if\": %.3f, "
          "\"detected\": %zu, \"what_if_detected\": %u, "
          "\"what_if_state_effects\": %u}%s\n",
          s.threads, s.run_s, s.what_if_s,
          s.run_s > 0 ? base.run_s / s.run_s : 0.0,
          s.what_if_s > 0 ? base.what_if_s / s.what_if_s : 0.0, s.detected,
          s.what_if_detected, s.what_if_effects,
          si + 1 < cr.samples.size() ? "," : "");
    }
    std::fprintf(json, "    ]}%s\n", ci + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_parallel.json%s\n",
              consistent ? "" : " (INCONSISTENT RESULTS)");
  return consistent ? 0 : 1;
}
