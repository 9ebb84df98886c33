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
// Usage: bench_alternatives [--time-scale=X] [--pass-budget=X] [--json=FILE]
//        [names...]
#include <cstdio>

#include "common.h"
#include "tpg/alternating.h"
#include "tpg/randgen.h"
#include "tpg/simgen.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace gatpg;
  std::vector<std::string> names;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &names);
  if (names.empty()) names = {"g298", "g526", "g1488", "div4", "mult4"};
  const double budget = options.pass_budget_s * 3;  // whole-run budget

  std::printf("Test-generator landscape (whole-run budget %.3gs/engine)\n",
              budget);
  bench::JsonReport json;
  bench::JsonReport* json_ptr = options.json_path.empty() ? nullptr : &json;
  auto table = bench::make_engine_table();
  for (const auto& name : names) {
    const auto c = bench::load_circuit(name);
    const std::size_t total = fault::collapse(c).size();
    auto emit = [&](const std::string& engine,
                    const session::SessionResult& r, double time_s) {
      bench::add_engine_row(table, c.name(), engine, total, r, time_s);
    };

    for (const bool weighted : {false, true}) {
      tpg::RandomGenConfig cfg;
      cfg.seed = options.seed;
      cfg.weighted = weighted;
      cfg.max_vectors = 100000;
      cfg.stagnation_blocks = 30;
      const char* engine = weighted ? "weighted" : "random";
      auto observer = bench::JsonReport::observe(json_ptr, c.name(), engine);
      util::Stopwatch timer;
      const auto r = tpg::random_pattern_generate(c, cfg, &observer);
      emit(engine, r, timer.seconds());
    }
    {
      tpg::SimGenConfig cfg;
      cfg.seed = options.seed;
      cfg.time_limit_s = budget;
      auto observer = bench::JsonReport::observe(json_ptr, c.name(), "sim-GA");
      util::Stopwatch timer;
      const auto r = tpg::SimulationTestGenerator(c, cfg).run(&observer);
      emit("sim-GA", r, timer.seconds());
    }
    {
      tpg::AlternatingConfig cfg;
      cfg.seed = options.seed;
      cfg.time_limit_s = budget;
      cfg.det_limits.time_limit_s = 10 * options.time_scale;
      auto observer =
          bench::JsonReport::observe(json_ptr, c.name(), "alt-hybrid");
      util::Stopwatch timer;
      const auto r = tpg::alternating_hybrid_generate(c, cfg, &observer);
      emit("alt-hybrid", r, timer.seconds());
    }
    for (const bool use_ga : {false, true}) {
      hybrid::HybridConfig cfg;
      cfg.schedule =
          use_ga ? session::PassSchedule::ga_hitec(options.time_scale)
                 : session::PassSchedule::hitec(options.time_scale);
      for (auto& pass : cfg.schedule.passes) {
        pass.pass_budget_s = options.pass_budget_s;
      }
      cfg.seed = options.seed;
      const char* engine = use_ga ? "GA-HITEC" : "HITEC";
      auto observer = bench::JsonReport::observe(json_ptr, c.name(), engine);
      util::Stopwatch timer;
      const auto r = hybrid::HybridAtpg(c, cfg).run(&observer);
      emit(engine, r, timer.seconds());
    }
    table.add_rule();
  }
  table.print();
  std::printf("\nShape checks: only the deterministic-capable engines report "
              "Unt > 0; GA-HITEC leads or ties on the datapath rows.\n");
  bench::finish_json(options, json);
  return 0;
}
