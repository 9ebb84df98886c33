// Reproduces the §IV-B / Table I parameter rationale: how population size,
// generation count and sequence length trade detection against time in a
// single GA pass.  The paper grows all three between pass 1 (64/4/x/2) and
// pass 2 (128/8/x): this sweep shows the same monotone coverage-vs-cost
// trend on the analog suite.
//
// Each cell is Table I's first pass (bench_tables' schedule: count budgets
// only, no wall-clock limit) with the cell's GA parameters, so Det and GA
// calls are machine-independent; the Time column is the cost they took.
//
// Usage: bench_ga_params [--seed=N] [circuit]
#include <cstdio>

#include "common.h"
#include "util/stopwatch.h"
#include "util/tableprint.h"

int main(int argc, char** argv) {
  using namespace gatpg;
  std::vector<std::string> names;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &names);
  const std::string name = names.empty() ? "g526" : names.front();
  const auto c = bench::load_circuit(name);

  std::printf("Table I rationale: single GA pass on %s, parameter sweep\n",
              c.name().c_str());
  util::TablePrinter table({"Pop", "Gens", "SeqLen x depth", "Det", "Vec",
                            "GA calls", "GA wins", "Time"});
  for (const std::size_t population : {64u, 128u}) {
    for (const unsigned generations : {4u, 8u}) {
      for (const double multiplier : {2.0, 4.0, 8.0}) {
        hybrid::HybridConfig cfg = bench::table_config(true, options.seed);
        session::PassConfig pass = cfg.schedule.passes.front();
        pass.ga_population = population;
        pass.ga_generations = generations;
        pass.seq_len_multiplier = multiplier;
        cfg.schedule.passes = {pass};
        util::Stopwatch timer;
        const auto result = hybrid::HybridAtpg(c, cfg).run();
        table.add_row({std::to_string(population),
                       std::to_string(generations), util::format_sig(multiplier, 2),
                       std::to_string(result.detected()),
                       std::to_string(result.passes.back().vectors),
                       std::to_string(result.counters.ga_invocations),
                       std::to_string(result.counters.ga_successes),
                       util::format_duration(timer.seconds())});
      }
    }
  }
  table.print();
  std::printf("\nShape check (paper): larger populations/generations/lengths "
              "detect more faults at higher cost;\npass 1's small settings "
              "already catch most easy faults.\n");
  return 0;
}
