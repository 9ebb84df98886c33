// Compares the full landscape of §I under equal wall-clock budgets: random
// patterns [9], weighted-random [10-12], simulation-based GA test generation
// (GATEST/CRIS, [15-18]), Saab's alternating simulation/deterministic hybrid
// [19], the deterministic HITEC baseline [6], and GA-HITEC (this paper).
//
// The paper's positioning to reproduce: simulation-based approaches shine on
// data-dominant circuits, deterministic on control-dominant ones, and the
// per-fault hybrid dominates both on the synthesized datapaths while staying
// competitive everywhere and uniquely able to prove untestability
// (random/GA baselines report none).
//
// Every engine stops on counts, never on the clock: the random generators
// on their vector cap and stagnation blocks, the simulation GA on barren
// rounds, the alternating hybrid on consecutive deterministic failures, and
// GA-HITEC / HITEC on bench_tables' Table I schedules.  The Time column is
// the cost each engine took, not a budget.
//
// Usage: bench_alternatives [--seed=N] [names...]
#include <cstdio>

#include "common.h"
#include "tpg/alternating.h"
#include "tpg/randgen.h"
#include "tpg/simgen.h"
#include "util/stopwatch.h"
#include "util/tableprint.h"

int main(int argc, char** argv) {
  using namespace gatpg;
  std::vector<std::string> names;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &names);
  if (names.empty()) names = {"g298", "g526", "g1488", "div4", "mult4"};

  std::printf("Test-generator landscape (count budgets, seed %llu)\n",
              static_cast<unsigned long long>(options.seed));
  util::TablePrinter table(
      {"Circuit", "Engine", "Det", "Unt", "Vec", "Time", "Cov%"});
  for (const auto& name : names) {
    const auto c = bench::load_circuit(name);
    const std::size_t total = fault::collapse(c).size();
    auto emit = [&](const std::string& engine,
                    const session::SessionResult& r, double time_s) {
      table.add_row({c.name(), engine, std::to_string(r.detected()),
                     std::to_string(r.untestable()),
                     std::to_string(r.test_set.size()),
                     util::format_duration(time_s),
                     util::format_sig(100.0 *
                                          static_cast<double>(r.detected()) /
                                          static_cast<double>(total),
                                      3)});
    };

    for (const bool weighted : {false, true}) {
      tpg::RandomGenConfig cfg;
      cfg.seed = options.seed;
      cfg.weighted = weighted;
      cfg.max_vectors = 100000;
      cfg.stagnation_blocks = 30;
      util::Stopwatch timer;
      const auto r = tpg::random_pattern_generate(c, cfg);
      emit(weighted ? "weighted" : "random", r, timer.seconds());
    }
    {
      tpg::SimGenConfig cfg;
      cfg.seed = options.seed;
      cfg.time_limit_s = 0.0;
      util::Stopwatch timer;
      const auto r = tpg::SimulationTestGenerator(c, cfg).run();
      emit("sim-GA", r, timer.seconds());
    }
    {
      tpg::AlternatingConfig cfg;
      cfg.seed = options.seed;
      cfg.time_limit_s = 0.0;
      cfg.det_limits.time_limit_s = 0.0;
      util::Stopwatch timer;
      const auto r = tpg::alternating_hybrid_generate(c, cfg);
      emit("alt-hybrid", r, timer.seconds());
    }
    for (const bool use_ga : {false, true}) {
      util::Stopwatch timer;
      const auto r =
          hybrid::HybridAtpg(c, bench::table_config(use_ga, options.seed))
              .run();
      emit(use_ga ? "GA-HITEC" : "HITEC", r, timer.seconds());
    }
    table.add_rule();
  }
  table.print();
  std::printf("\nShape checks: only the deterministic-capable engines report "
              "Unt > 0; GA-HITEC leads or ties on the datapath rows.\n");
  return 0;
}
