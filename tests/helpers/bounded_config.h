// Wall-clock-free hybrid ATPG configurations for tests.
//
// Per-fault effort is bounded by forward solutions, GA generations and
// backtrack limits alone, so a run's time and result depend only on
// (circuit, config, seed), never on how fast the machine is.
#pragma once

#include <cstdint>

#include "hybrid/hybrid_atpg.h"

namespace gatpg::test {

/// GA, GA, deterministic (the GA-HITEC shape of Table I) with no wall-clock
/// limit: 4 forward solutions per fault, GA populations 64/128 over 4/8
/// generations at 4x/8x the sequential depth, 200/200/500 backtracks.
inline hybrid::HybridConfig bounded_ga_config(std::uint64_t seed = 1) {
  hybrid::HybridConfig cfg;
  cfg.seed = seed;
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

/// bounded_ga_config with every pass deterministic (the HITEC baseline
/// shape), so the GA is never called.
inline hybrid::HybridConfig bounded_hitec_config(std::uint64_t seed = 1) {
  hybrid::HybridConfig cfg = bounded_ga_config(seed);
  for (auto& pass : cfg.schedule.passes) {
    pass.mode = session::JustifyMode::kDeterministic;
  }
  return cfg;
}

}  // namespace gatpg::test
