#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "atpg/detengine.h"
#include "gen/registry.h"
#include "netlist/depth.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace gatpg::bench {

netlist::Circuit load_circuit(const std::string& name) {
  try {
    return gen::make_circuit(name);
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "unknown circuit '%s'; valid circuits:",
                 name.c_str());
    for (const std::string& n : gen::registry_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

BenchOptions parse_options(int argc, char** argv,
                           std::vector<std::string>* positional) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      options.full = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads =
          static_cast<unsigned>(std::strtoul(arg.c_str() + 10, nullptr, 10));
    } else if (positional) {
      positional->push_back(arg);
    }
  }
  return options;
}

std::string to_hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return s;
}

session::SessionResult run_hybrid(const netlist::Circuit& c,
                                  const fault::FaultList& faults,
                                  const hybrid::HybridConfig& cfg) {
  session::Session s(c, faults, cfg.session_config());
  util::Rng rng(cfg.seed);
  hybrid::HybridEngine engine(c, cfg, netlist::sequential_depth(c), rng);
  return s.run(engine, cfg.schedule);
}

bool same_bits(const session::SessionResult& a,
               const session::SessionResult& b) {
  return a.digests.faults == b.digests.faults &&
         a.digests.tests == b.digests.tests &&
         a.digests.store == b.digests.store &&
         a.fault_state == b.fault_state && a.test_set == b.test_set &&
         a.detected() == b.detected() && a.untestable() == b.untestable();
}

hybrid::HybridConfig table_config(bool ga_hitec, std::uint64_t seed) {
  hybrid::HybridConfig cfg;
  cfg.schedule = ga_hitec ? session::PassSchedule::ga_hitec()
                          : session::PassSchedule::hitec();
  const long scale[2][3] = {{1, 10, 100}, {1, 1, 100}};
  for (std::size_t p = 0; p < cfg.schedule.passes.size(); ++p) {
    session::PassConfig& pass = cfg.schedule.passes[p];
    pass.time_limit_s = 0.0;  // the whole-pass budget is already 0
    pass.max_backtracks = scale[ga_hitec][p] * kTableBacktracks;
  }
  cfg.max_solutions_per_fault = 4;
  cfg.seed = seed;
  cfg.parallel.threads = 1;
  return cfg;
}

std::vector<JustifyProblem> harvest_problems(const netlist::Circuit& c,
                                             std::size_t cap) {
  std::vector<JustifyProblem> problems;
  atpg::SearchLimits limits;
  limits.max_backtracks = 2000;
  for (const fault::Fault& f : fault::collapse(c).faults) {
    if (problems.size() >= cap) break;
    atpg::ForwardEngine engine(c, f, limits);
    if (engine.next_solution(util::Deadline::unlimited()) !=
        atpg::ForwardStatus::kSolved) {
      continue;
    }
    const sim::State3 state = engine.required_state();
    bool needs = false;
    for (sim::V3 v : state) needs |= v != sim::V3::kX;
    if (needs) problems.push_back({f, state});
  }
  return problems;
}

}  // namespace gatpg::bench
