// Fault-model bench: the hybrid generator over both fault universes on a
// fixed circuit set, with a backtrack-bounded (wall-clock-free) schedule so
// every row is a pure function of (circuit, universe, seed) and the
// committed snapshot can be exact-match gated by tools/check_bench.py.
//
// Emits BENCH_faults.json with per-(circuit, model) coverage, test-set
// size, engine counters, and the test-set digest, plus two self-check
// invariants: `consistent_across_configs` (the base run is bit-identical
// at 4 fault-sim threads) and
// `stuck_at_matches_default` (a config that never mentions the fault-model
// axis produces the stuck-at run bit for bit).  Coverage floors per model
// are exported as min_coverage_* for the threshold gate.
//
// Usage: bench_faults [--seed=N] [--full] [--backtracks=N] [--cap=N]
//                     [names...]
//   --full adds g1423; --cap bounds the collapsed fault list per row.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "fault/faultlist.h"
#include "hybrid/hybrid_atpg.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace {

using namespace gatpg;

/// Backtrack/generation-bounded two-pass schedule: no wall-clock limit ever
/// binds, so results are machine-independent (the exact-match gate relies
/// on this).
hybrid::HybridConfig base_config(fault::FaultUniverse universe,
                                 std::uint64_t seed, long backtracks) {
  hybrid::HybridConfig cfg;
  cfg.fault_model = universe;
  session::PassConfig ga;
  ga.mode = session::JustifyMode::kGenetic;
  ga.time_limit_s = 0.0;
  ga.max_backtracks = backtracks;
  ga.ga_population = 64;
  ga.ga_generations = 2;
  ga.seq_len_multiplier = 2.0;
  session::PassConfig det;
  det.mode = session::JustifyMode::kDeterministic;
  det.time_limit_s = 0.0;
  det.max_backtracks = backtracks;
  cfg.schedule.passes = {ga, det};
  cfg.max_solutions_per_fault = 4;
  cfg.seed = seed;
  cfg.parallel.threads = 1;
  cfg.state_store.enabled = true;
  return cfg;
}

struct Row {
  fault::FaultUniverse universe = fault::FaultUniverse::kStuckAt;
  std::size_t faults = 0;
  std::size_t detected = 0;
  std::size_t untestable = 0;
  std::size_t vectors = 0;
  long targeted = 0;
  long committed_tests = 0;
  std::uint64_t digest_tests = 0;
  double time_s = 0.0;

  double coverage() const {
    return faults == 0 ? 0.0
                       : static_cast<double>(detected) /
                             static_cast<double>(faults);
  }
};

struct CircuitResult {
  std::string name;
  std::vector<Row> rows;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &positional);
  long backtracks = 200;
  std::size_t cap = 160;
  std::vector<std::string> names;
  for (const std::string& arg : positional) {
    if (arg.rfind("--backtracks=", 0) == 0) {
      backtracks = std::atol(arg.c_str() + 13);
    } else if (arg.rfind("--cap=", 0) == 0) {
      cap = std::strtoull(arg.c_str() + 6, nullptr, 10);
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) {
    names = {"s27", "g344", "g382", "g526"};
    if (options.full) names.push_back("g1423");
  }

  std::printf("Hybrid ATPG per fault model (backtracks=%ld, cap=%zu, "
              "seed=%llu, hardware_concurrency=%u)\n\n",
              backtracks, cap,
              static_cast<unsigned long long>(options.seed),
              util::ParallelConfig{}.resolved());

  bool consistent = true;
  bool stuck_at_matches_default = true;
  double min_coverage_stuck_at = 1.0;
  double min_coverage_transition = 1.0;
  std::vector<CircuitResult> results;
  for (const std::string& name : names) {
    const netlist::Circuit c = bench::load_circuit(name);
    CircuitResult cr;
    cr.name = name;

    for (const auto universe :
         {fault::FaultUniverse::kStuckAt, fault::FaultUniverse::kTransition}) {
      fault::FaultList faults = fault::collapse(c, universe);
      if (faults.size() > cap) {
        faults.faults.resize(cap);
        faults.class_sizes.resize(cap);
      }
      const hybrid::HybridConfig cfg =
          base_config(universe, options.seed, backtracks);

      const util::Stopwatch sw;
      const session::SessionResult base = bench::run_hybrid(c, faults, cfg);
      const double time_s = sw.seconds();

      // Identity across execution shapes: fault-sim threads are pure
      // execution parallelism and must never move a bit.
      {
        hybrid::HybridConfig v = cfg;
        v.parallel.threads = 4;
        if (!bench::same_bits(base, bench::run_hybrid(c, faults, v))) {
          std::printf("ERROR: %s %s diverges at 4 fault-sim threads\n",
                      name.c_str(), fault::universe_name(universe));
          consistent = false;
        }
      }
      // The model axis must be invisible to stuck-at callers: a config that
      // never mentions it reproduces the explicit stuck-at run exactly.
      if (universe == fault::FaultUniverse::kStuckAt) {
        hybrid::HybridConfig legacy =
            base_config(universe, options.seed, backtracks);
        legacy.fault_model = fault::FaultUniverse::kStuckAt;
        fault::FaultList legacy_faults = fault::collapse(c);
        if (legacy_faults.size() > cap) {
          legacy_faults.faults.resize(cap);
          legacy_faults.class_sizes.resize(cap);
        }
        if (!bench::same_bits(base,
                              bench::run_hybrid(c, legacy_faults, legacy))) {
          std::printf("ERROR: %s stuck-at diverges from default-config run\n",
                      name.c_str());
          stuck_at_matches_default = false;
        }
      }

      Row row;
      row.universe = universe;
      row.faults = faults.size();
      row.detected = base.detected();
      row.untestable = base.untestable();
      row.vectors = base.test_set.size();
      row.targeted = base.counters.targeted;
      row.committed_tests = base.counters.committed_tests;
      row.digest_tests = base.digests.tests;
      row.time_s = time_s;
      cr.rows.push_back(row);

      (universe == fault::FaultUniverse::kStuckAt ? min_coverage_stuck_at
                                                  : min_coverage_transition) =
          std::min(universe == fault::FaultUniverse::kStuckAt
                       ? min_coverage_stuck_at
                       : min_coverage_transition,
                   row.coverage());
      std::printf("%-8s %-10s %4zu faults  det=%4zu (%5.1f%%)  unt=%3zu  "
                  "vectors=%4zu  tests=%4ld  %7.2fms\n",
                  name.c_str(), fault::universe_name(universe), row.faults,
                  row.detected, row.coverage() * 100.0, row.untestable,
                  row.vectors, row.committed_tests, time_s * 1e3);
    }
    std::printf("\n");
    results.push_back(std::move(cr));
  }

  util::JsonWriter json(util::JsonWriter::Style::kPretty);
  json.begin_object();
  json.field("bench", "faults");
  json.field("hardware_concurrency", util::ParallelConfig{}.resolved());
  json.field("seed", options.seed);
  json.field("backtracks", backtracks);
  json.field("cap", cap);
  json.field("consistent_across_configs", consistent);
  json.field("stuck_at_matches_default", stuck_at_matches_default);
  json.field("min_coverage_stuck_at", min_coverage_stuck_at);
  json.field("min_coverage_transition", min_coverage_transition);
  json.key("circuits").begin_array();
  for (const CircuitResult& cr : results) {
    json.begin_object();
    json.field("name", cr.name);
    json.key("results").begin_array();
    for (const Row& r : cr.rows) {
      json.begin_object();
      json.field("model", fault::universe_name(r.universe));
      json.field("faults", r.faults);
      json.field("detected", r.detected);
      json.field("untestable", r.untestable);
      json.field("vectors", r.vectors);
      json.field("coverage", r.coverage());
      json.field("targeted", r.targeted);
      json.field("committed_tests", r.committed_tests);
      json.field("digest_tests", bench::to_hex(r.digest_tests));
      json.field("time_s", r.time_s);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  if (!json.write_file("BENCH_faults.json")) {
    std::fprintf(stderr, "cannot write BENCH_faults.json\n");
    return 1;
  }
  std::printf("min coverage: stuck_at %.1f%%, transition %.1f%%\n",
              min_coverage_stuck_at * 100.0, min_coverage_transition * 100.0);
  const bool ok = consistent && stuck_at_matches_default;
  std::printf("wrote BENCH_faults.json%s\n",
              ok ? "" : " (INCONSISTENT RESULTS)");
  return ok ? 0 : 1;
}
