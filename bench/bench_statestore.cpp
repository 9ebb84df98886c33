// The cross-fault state-knowledge layer (state::StateStore) on the hybrid
// engine: GA-HITEC and HITEC schedules run store-off and store-on per
// circuit, reporting justified-cache hit rates, unjustifiable-proof hits,
// forward-solution reuse, justification calls avoided, and the wall-clock
// delta.  Store-off identity with the pre-store goldens is pinned by the
// GoldenEquivalence tests (tests/test_session.cpp), not here.
//
// Emits BENCH_statestore.json.
//
// Usage: bench_statestore [--seed=N] [--full] [--backtracks=N]
//                         [--solutions=N] [names...]
//   --full adds the largest analog (g1423).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "hybrid/hybrid_atpg.h"
#include "util/stopwatch.h"

namespace {

using namespace gatpg;

/// The deterministic-budget configuration of the sweep: wall-clock limits
/// never bind, so results are machine-independent.
hybrid::HybridConfig bounded_config(bool ga, std::uint64_t seed,
                                    long backtracks, unsigned solutions) {
  hybrid::HybridConfig cfg;
  cfg.schedule = ga ? session::PassSchedule::ga_hitec(1.0)
                    : session::PassSchedule::hitec(1.0);
  for (auto& p : cfg.schedule.passes) {
    p.time_limit_s = 1000.0;
    p.max_backtracks = backtracks;
    p.ga_population = 64;
    p.ga_generations = 2;
  }
  cfg.max_solutions_per_fault = solutions;
  cfg.seed = seed;
  return cfg;
}

struct RunSample {
  bool store_on = false;
  double wall_s = 0.0;
  std::size_t detected = 0;
  std::size_t untestable = 0;
  std::size_t vectors = 0;
  state::StateStoreStats store;

  long calls_avoided() const {
    return store.seq_hits + store.unjust_hits + store.forward_cache_hits;
  }
  double seq_hit_rate() const {
    const long lookups = store.seq_hits + store.seq_misses;
    return lookups > 0 ? static_cast<double>(store.seq_hits) /
                             static_cast<double>(lookups)
                       : 0.0;
  }
};

struct SweepRow {
  std::string circuit;
  std::string schedule;
  RunSample off;
  RunSample on;

  double wall_delta() const {
    return off.wall_s > 0 ? (off.wall_s - on.wall_s) / off.wall_s : 0.0;
  }
};

RunSample run_once(const netlist::Circuit& c, hybrid::HybridConfig cfg,
                   bool store_on, unsigned threads) {
  cfg.state_store.enabled = store_on;
  cfg.parallel.threads = threads;
  RunSample s;
  s.store_on = store_on;
  const util::Stopwatch sw;
  const auto r = hybrid::HybridAtpg(c, cfg).run();
  s.wall_s = sw.seconds();
  s.detected = r.detected();
  s.untestable = r.untestable();
  s.vectors = r.test_set.size();
  s.store = r.counters.store;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &positional);
  long backtracks = 300;
  unsigned solutions = 4;
  std::vector<std::string> names;
  for (const std::string& arg : positional) {
    if (arg.rfind("--backtracks=", 0) == 0) {
      backtracks = std::atol(arg.c_str() + 13);
    } else if (arg.rfind("--solutions=", 0) == 0) {
      solutions = static_cast<unsigned>(std::atoi(arg.c_str() + 12));
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) {
    names = {"s27", "g298", "g526"};
    if (options.full) names.push_back("g1423");
  }

  // -- Store on/off sweep ---------------------------------------------------
  std::printf(
      "StateStore on/off (Table I schedules, backtracks=%ld, "
      "solutions=%u)\n\n",
      backtracks, solutions);
  std::vector<SweepRow> rows;
  for (const std::string& name : names) {
    const auto c = bench::load_circuit(name);
    for (const bool ga : {true, false}) {
      SweepRow row;
      row.circuit = name;
      row.schedule = ga ? "ga_hitec" : "hitec";
      const hybrid::HybridConfig cfg = bounded_config(
          ga, options.seed != 1 ? options.seed : 3, backtracks, solutions);
      row.off = run_once(c, cfg, false, options.threads);
      row.on = run_once(c, cfg, true, options.threads);
      std::printf(
          "%-8s %-8s  off: wall=%8.1fms det=%4zu unt=%4zu vec=%5zu | "
          "on: wall=%8.1fms det=%4zu unt=%4zu vec=%5zu\n",
          row.circuit.c_str(), row.schedule.c_str(), row.off.wall_s * 1e3,
          row.off.detected, row.off.untestable, row.off.vectors,
          row.on.wall_s * 1e3, row.on.detected, row.on.untestable,
          row.on.vectors);
      std::printf(
          "                   seq hit rate %.0f%% (%ld/%ld), unjust hits "
          "%ld, fwd reuse %ld, calls avoided %ld, GA seeds %ld, wall "
          "%+.1f%%\n",
          row.on.seq_hit_rate() * 100.0, row.on.store.seq_hits,
          row.on.store.seq_hits + row.on.store.seq_misses,
          row.on.store.unjust_hits, row.on.store.forward_cache_hits,
          row.on.calls_avoided(), row.on.store.ga_seeds_served,
          -row.wall_delta() * 100.0);
      rows.push_back(std::move(row));
    }
  }

  FILE* json = std::fopen("BENCH_statestore.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot write BENCH_statestore.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"statestore\",\n");
  std::fprintf(json, "  \"backtracks\": %ld,\n  \"solutions\": %u,\n",
               backtracks, solutions);
  std::fprintf(json, "  \"runs\": [\n");
  for (std::size_t ri = 0; ri < rows.size(); ++ri) {
    const SweepRow& row = rows[ri];
    std::fprintf(json,
                 "    {\"circuit\": \"%s\", \"schedule\": \"%s\", "
                 "\"wall_delta\": %.4f, \"results\": [\n",
                 row.circuit.c_str(), row.schedule.c_str(), row.wall_delta());
    for (const RunSample* s : {&row.off, &row.on}) {
      std::fprintf(
          json,
          "      {\"store\": %s, \"wall_s\": %.6f, \"detected\": %zu, "
          "\"untestable\": %zu, \"vectors\": %zu, \"seq_hits\": %ld, "
          "\"seq_misses\": %ld, \"seq_hit_rate\": %.4f, "
          "\"seq_verify_failures\": %ld, \"unjust_hits\": %ld, "
          "\"forward_cache_hits\": %ld, \"calls_avoided\": %ld, "
          "\"ga_seeds_served\": %ld}%s\n",
          s->store_on ? "true" : "false", s->wall_s, s->detected,
          s->untestable, s->vectors, s->store.seq_hits, s->store.seq_misses,
          s->seq_hit_rate(), s->store.seq_verify_failures,
          s->store.unjust_hits, s->store.forward_cache_hits,
          s->calls_avoided(), s->store.ga_seeds_served,
          s == &row.off ? "," : "");
    }
    std::fprintf(json, "    ]}%s\n", ri + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_statestore.json\n");
  return 0;
}
