// Reproduces the conclusion-section speedup claim: "GA-HITEC wastes time
// targeting untestable faults in the first two passes ... If these
// untestable faults can be filtered out in advance, significant speedups can
// be obtained" (the paper singles out s386).
//
// Runs GA-HITEC with and without the combinational-untestability prefilter
// on redundancy-heavy control circuits and compares wall-clock and outcomes.
//
// Usage: bench_prefilter [--time-scale=X] [--seed=N] [names...]
#include <cstdio>

#include "common.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace gatpg;
  std::vector<std::string> names;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &names);
  if (names.empty()) names = {"g386", "g820", "g1488"};

  std::printf("Conclusion-section ablation: untestable-fault prefiltering "
              "(time scale %g)\n",
              options.time_scale);
  util::TablePrinter table({"Circuit", "Prefilter", "Det", "Unt", "GA calls",
                            "Time", "Speedup"});
  for (const auto& name : names) {
    const auto c = bench::load_circuit(name);
    double base_time = 0.0;
    for (const bool prefilter : {false, true}) {
      hybrid::HybridConfig cfg;
      cfg.schedule = session::PassSchedule::ga_hitec(options.time_scale);
      for (auto& pass : cfg.schedule.passes) {
        pass.pass_budget_s = options.pass_budget_s;
      }
      cfg.seed = options.seed;
      cfg.prefilter_untestable = prefilter;
      util::Stopwatch timer;
      const auto result = hybrid::HybridAtpg(c, cfg).run();
      const double elapsed = timer.seconds();
      if (!prefilter) base_time = elapsed;
      table.add_row({c.name(), prefilter ? "yes" : "no",
                     std::to_string(result.detected()),
                     std::to_string(result.untestable()),
                     std::to_string(result.counters.ga_invocations),
                     util::format_duration(elapsed),
                     prefilter ? util::format_sig(base_time / elapsed, 3) + "x"
                               : "1x"});
    }
    table.add_rule();
  }
  table.print();
  std::printf("\nShape check (paper): prefiltering cuts GA invocations and "
              "total time without losing detections.\n");
  return 0;
}
