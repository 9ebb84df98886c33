// Reproduces the conclusion-section speedup claim: "GA-HITEC wastes time
// targeting untestable faults in the first two passes ... If these
// untestable faults can be filtered out in advance, significant speedups can
// be obtained" (the paper singles out s386).
//
// Runs GA-HITEC with and without the combinational-untestability prefilter
// on redundancy-heavy control circuits and compares wall-clock and outcomes.
// The runs are wall-clock free: no per-target time limit and no pass
// budget, every pass bounded by backtracks and GA generations alone (the
// GA, GA, deterministic shape of the Table I schedule), so the Det, Unt and
// GA-calls columns depend only on the circuit and the seed and repeat from
// run to run; only Time and Speedup vary.
//
// Usage: bench_prefilter [--seed=N] [names...]
#include <cstdio>

#include "common.h"
#include "util/stopwatch.h"

namespace {

using namespace gatpg;

/// GA (population 64, 4 generations, 4x depth), GA (128, 8, 8x depth),
/// then deterministic justification; 200/200/500 backtracks per target.
hybrid::HybridConfig bounded_config(std::uint64_t seed, bool prefilter) {
  hybrid::HybridConfig cfg;
  cfg.seed = seed;
  cfg.prefilter_untestable = prefilter;
  cfg.max_solutions_per_fault = 4;
  cfg.schedule.passes.clear();
  session::PassConfig pass;
  pass.time_limit_s = 0.0;
  pass.pass_budget_s = 0.0;
  pass.mode = session::JustifyMode::kGenetic;
  pass.max_backtracks = 200;
  pass.ga_population = 64;
  pass.ga_generations = 4;
  pass.seq_len_multiplier = 4.0;
  cfg.schedule.passes.push_back(pass);
  pass.ga_population = 128;
  pass.ga_generations = 8;
  pass.seq_len_multiplier = 8.0;
  cfg.schedule.passes.push_back(pass);
  pass.mode = session::JustifyMode::kDeterministic;
  pass.max_backtracks = 500;
  cfg.schedule.passes.push_back(pass);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &names);
  if (names.empty()) names = {"g386", "g820", "g1488"};

  std::printf("Conclusion-section ablation: untestable-fault prefiltering "
              "(wall-clock free, seed %llu)\n",
              static_cast<unsigned long long>(options.seed));
  util::TablePrinter table({"Circuit", "Prefilter", "Det", "Unt", "GA calls",
                            "Time", "Speedup"});
  for (const auto& name : names) {
    const auto c = bench::load_circuit(name);
    double base_time = 0.0;
    for (const bool prefilter : {false, true}) {
      util::Stopwatch timer;
      const auto result =
          hybrid::HybridAtpg(c, bounded_config(options.seed, prefilter))
              .run();
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
