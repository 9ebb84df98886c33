// Reproduces the §IV-A fitness-weight claim: weighting the good-machine goal
// 9/10 and the faulty-machine goal 1/10 justifies more states than equal
// 1/2 : 1/2 weights ("if equal weights are used, the GA jumps back and forth
// among the goals, and none of the problems gets solved quickly").
//
// Justification problems are harvested from the deterministic front end: for
// every collapsed fault the ForwardEngine produces a (required state, fault)
// pair; each pair is then attempted by the GA justifier once per weight
// configuration with identical seeds and budgets.
//
// Every search is bounded by backtracks and generations alone, so the rows
// do not depend on host speed or load.
//
// Usage: bench_fitness_weights [--seed=N] [names...]
#include <cstdio>

#include "common.h"
#include "hybrid/ga_justify.h"
#include "util/tableprint.h"

int main(int argc, char** argv) {
  using namespace gatpg;
  std::vector<std::string> names;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &names);
  if (names.empty()) names = {"g298", "g382", "g526", "g1423"};

  std::printf("SS IV-A ablation: GA justification success by fitness weights\n");
  util::TablePrinter table({"Circuit", "Problems", "9:1 solved", "5:5 solved",
                            "9:1 len", "5:5 len"});
  for (const auto& name : names) {
    const auto c = bench::load_circuit(name);
    const auto problems = bench::harvest_problems(c, 60);
    const hybrid::GaStateJustifier justifier(c);
    const sim::State3 all_x(c.flip_flops().size(), sim::V3::kX);

    struct Score {
      int solved = 0;
      std::size_t total_len = 0;
    };
    Score paper, equal;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      for (bool use_paper_weights : {true, false}) {
        hybrid::GaJustifyConfig cfg;
        cfg.population = 64;
        cfg.generations = 8;
        cfg.sequence_length = 16;
        cfg.good_weight = use_paper_weights ? 0.9 : 0.5;
        cfg.faulty_weight = use_paper_weights ? 0.1 : 0.5;
        cfg.seed = options.seed + i;
        const auto r = justifier.justify(
            problems[i].fault, problems[i].state, problems[i].state, all_x,
            cfg, util::Deadline::unlimited());
        Score& score = use_paper_weights ? paper : equal;
        if (r.success) {
          ++score.solved;
          score.total_len += r.sequence.size();
        }
      }
    }
    auto avg = [](const Score& s) {
      return s.solved ? util::format_sig(
                            static_cast<double>(s.total_len) / s.solved, 3)
                      : std::string("-");
    };
    table.add_row({c.name(), std::to_string(problems.size()),
                   std::to_string(paper.solved), std::to_string(equal.solved),
                   avg(paper), avg(equal)});
  }
  table.print();
  std::printf("\nShape check (paper): the 9:1 column should solve at least "
              "as many problems as 5:5.\n");
  return 0;
}
