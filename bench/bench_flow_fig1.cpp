// Instruments Figure 1: the hybrid flow "excite -> propagate -> GA state
// justification -> (on failure) backtrack into propagation and retry".
//
// For each circuit the counters show how often each edge of the flowchart
// was taken during a GA-HITEC run: faults targeted, forward solutions
// produced, GA invocations vs successes, solutions needing no justification
// (state already matched / no state requirement), candidate tests rejected
// by the verifying fault simulator, and deterministic justifications in
// pass 3.
//
// Usage: bench_flow_fig1 [--time-scale=X] [--seed=N] [names...]
#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  using namespace gatpg;
  std::vector<std::string> names;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &names);
  if (names.empty()) names = {"s27", "g298", "g386", "g526"};

  std::printf("Figure 1 flow instrumentation (GA-HITEC, time scale %g)\n",
              options.time_scale);
  util::TablePrinter table({"Circuit", "Targeted", "FwdSol", "NoJust",
                            "GAcall", "GAwin", "DetJust", "DetWin",
                            "VerifyRej", "Det", "Unt"});
  for (const auto& name : names) {
    const auto c = bench::load_circuit(name);
    hybrid::HybridConfig cfg;
    cfg.schedule = session::PassSchedule::ga_hitec(options.time_scale);
    for (auto& pass : cfg.schedule.passes) {
      pass.pass_budget_s = options.pass_budget_s;
    }
    cfg.seed = options.seed;
    const auto result = hybrid::HybridAtpg(c, cfg).run();
    const auto& k = result.counters;
    table.add_row({c.name(), std::to_string(k.targeted),
                   std::to_string(k.forward_solutions),
                   std::to_string(k.no_justification_needed),
                   std::to_string(k.ga_invocations),
                   std::to_string(k.ga_successes),
                   std::to_string(k.det_justify_calls),
                   std::to_string(k.det_justify_successes),
                   std::to_string(k.verify_failures),
                   std::to_string(result.detected()),
                   std::to_string(result.untestable())});
  }
  table.print();
  std::printf("\nReading: FwdSol > Det+GAwin shows the Fig. 1 backtrack loop "
              "retrying alternative propagation choices after justification "
              "failures.\n");
  return 0;
}
