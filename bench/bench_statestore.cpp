// The cross-fault state-knowledge layer (state::StateStore) on the hybrid
// engine: GA-HITEC and HITEC schedules run store-off and store-on per
// circuit, reporting justified-cache hit rates, unjustifiable-proof hits,
// forward-solution reuse, justification calls avoided, and the wall-clock
// delta.
//
// Doubles as the store-off identity gate: before the sweep, the three
// golden hybrid configurations (tests/test_session.cpp) are re-run with the
// store disabled and checked hash-for-hash against the pre-store goldens;
// any divergence prints ERROR and makes the exit status nonzero, so CI can
// run this binary as a smoke test.
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

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}

std::uint64_t hash_sequence(const sim::Sequence& seq) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& vec : seq) {
    h = fnv1a(h, 0x5eedULL);
    for (sim::V3 v : vec) h = fnv1a(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

std::uint64_t hash_segments(const std::vector<sim::Sequence>& segs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& s : segs) {
    h = fnv1a(h, s.size());
    h = fnv1a(h, hash_sequence(s));
  }
  return h;
}

std::uint64_t hash_state(const std::vector<session::FaultStatus>& state) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (auto s : state) h = fnv1a(h, static_cast<std::uint64_t>(s));
  return h;
}

/// The deterministic-budget configuration of the golden runs: wall-clock
/// limits never bind, so results are machine-independent.
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

struct GoldenCase {
  const char* name;
  const char* circuit;
  bool ga;
  bool bounded;  // false = the plain ga_hitec/hitec(1.0) s27 configs
  std::uint64_t seed;
  std::uint64_t test_hash;
  std::uint64_t segs_hash;
  std::uint64_t state_hash;
};

// Captured before the state-knowledge layer landed
// (identical constants to tests/test_session.cpp).
constexpr GoldenCase kGolden[] = {
    {"ga_hitec_s27", "s27", true, false, 7, 0x323e06016efe6373ULL,
     0x492c98a2e68d32e2ULL, 0x38df9853f4efb1c5ULL},
    {"hitec_s27", "s27", false, false, 7, 0x8b3b113654070191ULL,
     0x4fee217ca767fae0ULL, 0x38df9853f4efb1c5ULL},
    {"ga_hitec_g298", "g298", true, true, 3, 0xb9a5941295a3f26aULL,
     0xfa926ee8bf40e530ULL, 0x70b1ab61ce78e845ULL},
};

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

  // -- Store-off identity gate ----------------------------------------------
  std::printf("Store-off identity vs pre-store goldens:\n");
  bool identical = true;
  std::vector<std::string> golden_rows;
  for (const GoldenCase& g : kGolden) {
    const auto c = bench::load_circuit(g.circuit);
    hybrid::HybridConfig cfg =
        g.bounded ? bounded_config(g.ga, g.seed, 300, 4)
                  : hybrid::HybridConfig{};
    if (!g.bounded) {
      cfg.schedule = g.ga ? session::PassSchedule::ga_hitec(1.0)
                          : session::PassSchedule::hitec(1.0);
      cfg.seed = g.seed;
    }
    cfg.state_store.enabled = false;
    cfg.parallel.threads = options.threads;
    const auto r = hybrid::HybridAtpg(c, cfg).run();
    const bool ok = hash_sequence(r.test_set) == g.test_hash &&
                    hash_segments(r.segments) == g.segs_hash &&
                    hash_state(r.fault_state) == g.state_hash;
    if (!ok) {
      identical = false;
      std::printf(
          "  ERROR: %s diverges from golden (test=%016llx segs=%016llx "
          "state=%016llx)\n",
          g.name,
          static_cast<unsigned long long>(hash_sequence(r.test_set)),
          static_cast<unsigned long long>(hash_segments(r.segments)),
          static_cast<unsigned long long>(hash_state(r.fault_state)));
    } else {
      std::printf("  %-14s OK\n", g.name);
    }
    golden_rows.push_back(std::string("    {\"case\": \"") + g.name +
                          "\", \"identical\": " + (ok ? "true" : "false") +
                          "}");
  }
  std::printf("\n");

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
  std::fprintf(json, "  \"store_off_identical_to_goldens\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(json, "  \"golden_cases\": [\n");
  for (std::size_t i = 0; i < golden_rows.size(); ++i) {
    std::fprintf(json, "%s%s\n", golden_rows[i].c_str(),
                 i + 1 < golden_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"runs\": [\n");
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
  std::printf("\nwrote BENCH_statestore.json%s\n",
              identical ? "" : " (STORE-OFF DIVERGES FROM GOLDENS)");
  return identical ? 0 : 1;
}
