// Differential-vs-full-sweep fault-simulation bench: the Table-II session
// workload (several run() extensions with fault dropping) plus the what_if
// fitness kernel, for the production differential engine at 1 and 4 threads
// and, once and serially, for the full-sweep oracle of
// tests/helpers/full_sweep_faultsim.h as the baseline.
//
// Emits BENCH_faultsim.json with wall-clock, gate-evaluation counts, skip
// rates, and repack counts per configuration, plus the gate-eval reduction
// and wall-clock speedup of each differential configuration over the
// full-sweep baseline.  Verifies on the way that every configuration
// produces identical detection counts and what_if results (the engines'
// bit-identity contract); exit status is nonzero on any mismatch.
//
// Usage: bench_faultsim [--seed=N] [--full] [--vectors=N] [--repeat=N]
//                       [--window=N] [names...]
//   --full adds the largest analog (g5378).
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "helpers/full_sweep_faultsim.h"
#include "helpers_bench.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace {

using namespace gatpg;

struct Sample {
  bool differential = false;
  unsigned threads = 0;
  double run_s = 0.0;      // session sweep (FaultSimulator::run)
  double what_if_s = 0.0;  // fitness kernel (FaultSimulator::what_if)
  fault::SimStats run_stats;
  std::size_t detected = 0;
  unsigned what_if_detected = 0;
  unsigned what_if_effects = 0;

  std::uint64_t total_evals() const {
    return run_stats.gate_evals + run_stats.good_gate_evals;
  }
};

struct CircuitResult {
  std::string name;
  std::size_t faults = 0;
  std::vector<Sample> samples;

  /// The full-sweep sample: the baseline every sample is judged against.
  const Sample& baseline() const { return samples.front(); }
};

/// Runs the session workload and the what_if kernel on `fs` (either engine)
/// and records the results into `sample`.
template <typename Sim>
void measure(Sim& fs, const netlist::Circuit& c,
             std::span<const std::size_t> all_indices, std::size_t vectors,
             int repeat, std::uint64_t seed, Sample& sample) {
  // Session sweep: fresh session per repeat, several run() extensions so
  // persistent faulty state, fault dropping, and (differentially) screening
  // and repacking are exercised.
  double run_s = 0.0;
  for (int rep = 0; rep < repeat; ++rep) {
    fs.reset_all();
    fs.reset_stats();
    util::Rng rng(seed);
    const util::Stopwatch sw;
    for (int chunk = 0; chunk < 4; ++chunk) {
      fs.run(bench::random_sequence(c, rng, vectors / 4));
    }
    run_s += sw.seconds();
    sample.detected = fs.detected_count();
    sample.run_stats = fs.stats();
  }
  sample.run_s = run_s / repeat;

  // Fitness kernel: what_if over the full fault list from the power-up
  // session state (the GA's per-candidate grading workload).
  fs.reset_all();
  util::Rng rng(seed + 7);
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
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &positional);
  std::size_t vectors = 96;
  int repeat = 3;
  unsigned window = fault::FaultSimConfig{}.window;
  std::vector<std::string> names;
  for (const std::string& arg : positional) {
    if (arg.rfind("--vectors=", 0) == 0) {
      vectors = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--window=", 0) == 0) {
      window = static_cast<unsigned>(std::atoi(arg.c_str() + 9));
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) {
    names = {"g298", "g526", "g820", "g1423"};
    if (options.full) names.push_back("g5378");
  }
  const std::vector<unsigned> thread_counts = {1, 4};

  std::printf("Differential vs full-sweep fault simulation (vectors=%zu, "
              "repeat=%d, hardware_concurrency=%u)\n\n",
              vectors, repeat, util::ParallelConfig{}.resolved());

  bool consistent = true;
  double worst_eval_reduction = 1e9;
  std::uint64_t full_evals_total = 0;
  std::uint64_t diff_evals_total = 0;
  std::vector<CircuitResult> results;
  for (const std::string& name : names) {
    const auto c = bench::load_circuit(name);
    const auto faults = fault::collapse(c).faults;
    CircuitResult cr;
    cr.name = name;
    cr.faults = faults.size();

    std::vector<std::size_t> all_indices(faults.size());
    std::iota(all_indices.begin(), all_indices.end(), 0);

    {
      Sample sample;
      sample.threads = 1;
      test::FullSweepFaultSim oracle(c, faults);
      measure(oracle, c, all_indices, vectors, repeat, options.seed, sample);
      cr.samples.push_back(sample);
    }
    for (const unsigned threads : thread_counts) {
      Sample sample;
      sample.differential = true;
      sample.threads = threads;
      fault::FaultSimConfig config;
      config.parallel.threads = threads;
      config.window = window;
      fault::FaultSimulator fs(c, faults, config);
      measure(fs, c, all_indices, vectors, repeat, options.seed, sample);
      cr.samples.push_back(sample);
    }

    const Sample& base = cr.baseline();
    for (const Sample& s : cr.samples) {
      if (s.detected != base.detected ||
          s.what_if_detected != base.what_if_detected ||
          s.what_if_effects != base.what_if_effects) {
        std::printf("ERROR: %s %s threads=%u diverges from baseline "
                    "(det %zu vs %zu, what_if %u/%u vs %u/%u)\n",
                    cr.name.c_str(), s.differential ? "diff" : "full",
                    s.threads, s.detected, base.detected, s.what_if_detected,
                    s.what_if_effects, base.what_if_detected,
                    base.what_if_effects);
        consistent = false;
      }
      const double speedup = s.run_s > 0 ? base.run_s / s.run_s : 0.0;
      const double eval_ratio =
          s.total_evals() > 0 ? static_cast<double>(base.total_evals()) /
                                    static_cast<double>(s.total_evals())
                              : 0.0;
      if (s.differential && eval_ratio < worst_eval_reduction) {
        worst_eval_reduction = eval_ratio;
      }
      if (s.threads == 1) {
        (s.differential ? diff_evals_total : full_evals_total) +=
            s.total_evals();
      }
      std::printf("%-8s %-4s threads=%u  run=%8.2fms (x%.2f)  "
                  "what_if=%8.2fms  gate_evals=%11llu (x%.2f)  "
                  "skip=%5.1f%%  repacks=%llu  det=%zu\n",
                  cr.name.c_str(), s.differential ? "diff" : "full",
                  s.threads, s.run_s * 1e3, speedup, s.what_if_s * 1e3,
                  static_cast<unsigned long long>(s.total_evals()),
                  eval_ratio, s.run_stats.skip_rate() * 100.0,
                  static_cast<unsigned long long>(s.run_stats.groups_repacked),
                  s.detected);
    }
    std::printf("\n");
    results.push_back(std::move(cr));
  }

  const double overall_reduction =
      diff_evals_total > 0 ? static_cast<double>(full_evals_total) /
                                 static_cast<double>(diff_evals_total)
                           : 0.0;
  util::JsonWriter json(util::JsonWriter::Style::kPretty);
  json.begin_object();
  json.field("bench", "faultsim");
  json.field("hardware_concurrency", util::ParallelConfig{}.resolved());
  json.field("vectors", vectors);
  json.field("repeat", repeat);
  json.field("consistent_across_configs", consistent);
  json.field("min_gate_eval_reduction", worst_eval_reduction);
  json.field("overall_gate_eval_reduction", overall_reduction);
  json.key("circuits").begin_array();
  for (const CircuitResult& cr : results) {
    json.begin_object();
    json.field("name", cr.name);
    json.field("faults", cr.faults);
    json.key("results").begin_array();
    const Sample& base = cr.baseline();
    for (const Sample& s : cr.samples) {
      json.begin_object();
      json.field("engine", s.differential ? "differential" : "full_sweep");
      json.field("threads", s.threads);
      json.field("run_s", s.run_s);
      json.field("what_if_s", s.what_if_s);
      json.field("gate_evals", s.run_stats.gate_evals);
      json.field("good_gate_evals", s.run_stats.good_gate_evals);
      json.field("group_vectors", s.run_stats.group_vectors);
      json.field("group_vectors_skipped", s.run_stats.group_vectors_skipped);
      json.field("skip_rate", s.run_stats.skip_rate());
      json.field("groups_repacked", s.run_stats.groups_repacked);
      json.field("detected", s.detected);
      json.field("speedup_vs_full_sweep",
                 s.run_s > 0 ? base.run_s / s.run_s : 0.0);
      json.field("gate_eval_reduction",
                 s.total_evals() > 0
                     ? static_cast<double>(base.total_evals()) /
                           static_cast<double>(s.total_evals())
                     : 0.0);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  if (!json.write_file("BENCH_faultsim.json")) {
    std::fprintf(stderr, "cannot write BENCH_faultsim.json\n");
    return 1;
  }
  std::printf("overall gate-eval reduction (differential vs full sweep): "
              "x%.2f\n",
              overall_reduction);
  std::printf("wrote BENCH_faultsim.json%s\n",
              consistent ? "" : " (INCONSISTENT RESULTS)");
  return consistent ? 0 : 1;
}
