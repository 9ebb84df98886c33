// Prints Table I — the pass schedule — as actually configured in the
// implementation, then demonstrates its effect: the per-pass detection yield
// of each schedule entry on a sample circuit (new detections per pass, not
// cumulative), for both GA-HITEC and the HITEC baseline.
//
// Usage: bench_table1_schedule [--time-scale=X] [circuit]
#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  using namespace gatpg;
  std::vector<std::string> names;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &names);
  const std::string name = names.empty() ? "g382" : names.front();

  std::printf("Table I: test generation approach (time scale %g)\n\n",
              options.time_scale);
  util::TablePrinter schedule({"Pass", "Approach", "Time/fault", "Backtracks",
                               "Population", "Generations", "SeqLen"});
  const auto ga = session::PassSchedule::ga_hitec(options.time_scale);
  for (std::size_t p = 0; p < ga.passes.size(); ++p) {
    const auto& pass = ga.passes[p];
    const bool genetic = pass.mode == session::JustifyMode::kGenetic;
    schedule.add_row(
        {std::to_string(p + 1), genetic ? "GA" : "deterministic",
         util::format_duration(pass.time_limit_s),
         std::to_string(pass.max_backtracks),
         genetic ? std::to_string(pass.ga_population) : "-",
         genetic ? std::to_string(pass.ga_generations) : "-",
         genetic ? util::format_sig(pass.seq_len_multiplier, 2) + " x depth"
                 : "-"});
  }
  schedule.print();

  const auto c = bench::load_circuit(name);
  const auto row = bench::run_comparison(c, options);
  std::printf("\nPer-pass yield on %s (%zu collapsed faults):\n",
              c.name().c_str(), row.total_faults);
  util::TablePrinter yield({"Pass", "GA-HITEC new det", "GA-HITEC new unt",
                            "HITEC new det", "HITEC new unt"});
  std::size_t pg = 0, pu = 0, hg = 0, hu = 0;
  for (std::size_t p = 0; p < row.ga_hitec.passes.size(); ++p) {
    const auto& a = row.ga_hitec.passes[p];
    const auto& h = row.hitec.passes[p];
    yield.add_row({std::to_string(p + 1), std::to_string(a.detected - pg),
                   std::to_string(a.untestable - pu),
                   std::to_string(h.detected - hg),
                   std::to_string(h.untestable - hu)});
    pg = a.detected;
    pu = a.untestable;
    hg = h.detected;
    hu = h.untestable;
  }
  yield.print();
  std::printf("\nShape check (paper): the GA passes harvest most testable "
              "faults cheaply; the deterministic pass adds untestability "
              "proofs and hard faults.\n");
  return 0;
}
