// Reproduces the §IV-A selection-scheme remark: squaring the fitness
// function changes proportionate selection (it amplifies differences) but is
// a no-op under tournament selection — only relative order matters there.
//
// Four configurations run on identical harvested justification problems with
// identical seeds: {tournament, proportionate} x {raw, squared}.  The
// tournament pair must produce *identical* outcomes; the proportionate pair
// generally differs.  Every search is bounded by backtracks and generations
// alone, so the verdict does not depend on host speed or load.
//
// Usage: bench_selection [--seed=N] [names...]
#include <cstdio>

#include "common.h"
#include "hybrid/ga_justify.h"
#include "util/tableprint.h"

int main(int argc, char** argv) {
  using namespace gatpg;
  std::vector<std::string> names;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &names);
  if (names.empty()) names = {"g298", "g526"};

  std::printf("SS IV-A selection ablation (identical seeds per cell)\n");
  util::TablePrinter table({"Circuit", "Problems", "tourn", "tourn^2",
                            "prop", "prop^2", "tourn==tourn^2"});

  for (const auto& name : names) {
    const auto c = bench::load_circuit(name);
    const auto problems = bench::harvest_problems(c, 40);
    const hybrid::GaStateJustifier justifier(c);
    const sim::State3 all_x(c.flip_flops().size(), sim::V3::kX);
    int solved[4] = {0, 0, 0, 0};
    bool identical = true;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      hybrid::GaJustifyResult results[4];
      int cell = 0;
      for (auto scheme : {ga::SelectionScheme::kTournamentWithoutReplacement,
                          ga::SelectionScheme::kProportionate}) {
        for (bool square : {false, true}) {
          hybrid::GaJustifyConfig cfg;
          cfg.population = 64;
          cfg.generations = 6;
          cfg.sequence_length = 12;
          cfg.selection = scheme;
          cfg.square_fitness = square;
          cfg.seed = options.seed + i * 4 + 1;
          results[cell] = justifier.justify(
              problems[i].fault, problems[i].state, problems[i].state, all_x,
              cfg, util::Deadline::unlimited());
          if (results[cell].success) ++solved[cell];
          ++cell;
        }
      }
      // Tournament cells (0 raw, 1 squared) must match exactly.
      if (results[0].success != results[1].success ||
          results[0].sequence != results[1].sequence) {
        identical = false;
      }
    }
    table.add_row({c.name(), std::to_string(problems.size()),
                   std::to_string(solved[0]), std::to_string(solved[1]),
                   std::to_string(solved[2]), std::to_string(solved[3]),
                   identical ? "yes" : "NO"});
  }
  table.print();
  std::printf("\nShape check (paper): the tournament columns are identical "
              "(squaring is a no-op under rank-based selection).\n");
  return 0;
}
