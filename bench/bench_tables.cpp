// The paper's Tables I–III and Figure 1: GA-HITEC against the HITEC
// baseline, pass by pass.
//
// Both engines run Table I's pass shapes on backtrack, generation and
// forward-solution budgets only: no per-fault time limit and no pass
// budget, so every row is a pure function of (circuit, schedule, seed) and
// tools/check_bench.py --bench tables exact-matches BENCH_tables.json.
//
//   Table I    the two schedules as configured.  GA-HITEC: GA, GA,
//              deterministic; HITEC: deterministic three times with its
//              backtracks x10 per pass.  Pass 3 gets the same budget in
//              both engines (the paper gives both 100 s per fault).
//   Table II   ISCAS89 rows (generated analogs, or real data/*.bench files
//              when present): cumulative Det/Vec/Unt after each pass, GA
//              sequences 4x/8x the sequential depth.
//   Table III  synthesized circuits with the paper's fixed GA sequence
//              lengths 24/48.
//   Figure 1   each GA-HITEC run's flowchart counters.
//
// Base runs are serial; wall time is printed and recorded per row, never
// gated.  The self-check `consistent_across_configs` reruns the smallest
// rows at 4 fault-sim threads (both engines) and on 4 targeting lanes
// (HITEC) and requires bit-identical results.
//
// Usage: bench_tables [--seed=N] [--full] [names...]
//   --full adds g5378 and runs div16/mult16 in place of div8/mult8.  Names
//   replace the default sweep; am2910, pcont2, divN and multN are Table III
//   rows.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "gen/divider.h"
#include "gen/multiplier.h"
#include "gen/registry.h"
#include "netlist/depth.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/stopwatch.h"
#include "util/tableprint.h"

namespace {

using namespace gatpg;
using session::EngineCounters;

constexpr std::size_t kIdentityRows = 3;

/// Figure 1's flowchart edges, as the engine counts them.
constexpr std::pair<const char*, long EngineCounters::*> kFlow[] = {
    {"targeted", &EngineCounters::targeted},
    {"forward_solutions", &EngineCounters::forward_solutions},
    {"no_justification_needed", &EngineCounters::no_justification_needed},
    {"ga_invocations", &EngineCounters::ga_invocations},
    {"ga_successes", &EngineCounters::ga_successes},
    {"det_justify_calls", &EngineCounters::det_justify_calls},
    {"det_justify_successes", &EngineCounters::det_justify_successes},
    {"verify_failures", &EngineCounters::verify_failures},
    {"aborted_faults", &EngineCounters::aborted_faults},
};

/// The cumulative per-pass columns of Tables II and III.
constexpr std::pair<const char*, std::size_t session::PassOutcome::*>
    kPassColumns[] = {
        {"det", &session::PassOutcome::detected},
        {"vec", &session::PassOutcome::vectors},
        {"unt", &session::PassOutcome::untestable},
};

bool is_table3(const std::string& name) {
  return name == "am2910" || name == "pcont2" || name.rfind("div", 0) == 0 ||
         name.rfind("mult", 0) == 0;
}

/// Registry names, plus the scaled-down Table III widths div8 and mult8.
netlist::Circuit make_table_circuit(const std::string& name) {
  if (!gen::resolves_to_file(name)) {
    if (name == "div8") return gen::make_divider(8, "div8");
    if (name == "mult8") return gen::make_multiplier(8, "mult8");
  }
  return bench::load_circuit(name);
}

/// Table I's shape; Table III rows fix the GA sequence lengths at 24/48.
hybrid::HybridConfig row_config(bool ga_hitec, std::uint64_t seed,
                                bool table3) {
  hybrid::HybridConfig cfg = bench::table_config(ga_hitec, seed);
  if (ga_hitec && table3) {
    cfg.schedule.passes[0].seq_len_override = 24;
    cfg.schedule.passes[1].seq_len_override = 48;
  }
  return cfg;
}

struct EngineRun {
  session::SessionResult result;
  double time_s = 0.0;
};

struct CircuitRow {
  std::string name;
  bool table3 = false;
  bool from_file = false;
  unsigned depth = 0;
  std::size_t faults = 0;
  EngineRun ga_hitec;
  EngineRun hitec;
};

void add_table_rows(util::TablePrinter& table, const CircuitRow& row) {
  const auto& ga = row.ga_hitec.result.passes;
  const auto& hi = row.hitec.result.passes;
  for (std::size_t p = 0; p < std::min(ga.size(), hi.size()); ++p) {
    table.add_row({p == 0 ? row.name : "",
                   p == 0 ? std::to_string(row.depth) : "",
                   p == 0 ? std::to_string(row.faults) : "", "|",
                   std::to_string(ga[p].detected),
                   std::to_string(ga[p].vectors),
                   util::format_duration(ga[p].time_s),
                   std::to_string(ga[p].untestable), "|",
                   std::to_string(hi[p].detected),
                   std::to_string(hi[p].vectors),
                   util::format_duration(hi[p].time_s),
                   std::to_string(hi[p].untestable)});
  }
  table.add_rule();
}

void print_comparison(const char* title, const std::vector<CircuitRow>& rows,
                      bool table3) {
  util::TablePrinter table({"Circuit", "Depth", "Faults", "|", "Det", "Vec",
                            "Time", "Unt", "|", "Det", "Vec", "Time", "Unt"});
  bool any = false;
  for (const CircuitRow& row : rows) {
    if (row.table3 != table3) continue;
    add_table_rows(table, row);
    any = true;
  }
  if (!any) return;
  std::printf("\n%s\n%28s %-28s %s\n", title, "", "GA-HITEC", "HITEC");
  table.print();
}

void write_engine(util::JsonWriter& json, const char* engine,
                  const EngineRun& run) {
  json.begin_object();
  json.field("engine", engine);
  for (const auto& [key, member] : kPassColumns) {
    json.key(key).begin_array();
    for (const session::PassOutcome& pass : run.result.passes) {
      json.value(pass.*member);
    }
    json.end_array();
  }
  for (const auto& [name, member] : kFlow) {
    json.field(name, run.result.counters.*member);
  }
  json.field("digest_faults", bench::to_hex(run.result.digests.faults));
  json.field("digest_tests", bench::to_hex(run.result.digests.tests));
  json.key("pass_time_s").begin_array();
  for (const session::PassOutcome& pass : run.result.passes) {
    json.value(pass.time_s);
  }
  json.end_array();
  json.field("time_s", run.time_s);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &names);
  if (names.empty()) {
    names = {"s27",  "g298",  "g344",  "g349",  "g382",  "g386",
             "g400", "g444",  "g526",  "g641",  "g713",  "g820",
             "g832", "g1196", "g1238", "g1423", "g1488", "g1494"};
    if (options.full) names.push_back("g5378");
    for (const char* name :
         {"am2910", options.full ? "div16" : "div8",
          options.full ? "mult16" : "mult8", "pcont2"}) {
      names.push_back(name);
    }
  }

  const hybrid::HybridConfig ga_shape = bench::table_config(true, options.seed);
  const hybrid::HybridConfig hitec_shape =
      bench::table_config(false, options.seed);
  std::printf("Table I: test generation approach (seed %llu, %u forward "
              "solutions per fault, no wall-clock limits)\n",
              static_cast<unsigned long long>(options.seed),
              ga_shape.max_solutions_per_fault);
  util::TablePrinter schedule({"Pass", "GA-HITEC", "Backtracks",
                               "Population", "Generations", "SeqLen",
                               "HITEC backtracks"});
  for (std::size_t p = 0; p < ga_shape.schedule.passes.size(); ++p) {
    const session::PassConfig& pass = ga_shape.schedule.passes[p];
    const bool genetic = pass.mode == session::JustifyMode::kGenetic;
    schedule.add_row(
        {std::to_string(p + 1), genetic ? "GA" : "deterministic",
         std::to_string(pass.max_backtracks),
         genetic ? std::to_string(pass.ga_population) : "-",
         genetic ? std::to_string(pass.ga_generations) : "-",
         genetic ? util::format_sig(pass.seq_len_multiplier, 2) + " x depth"
                 : "-",
         std::to_string(hitec_shape.schedule.passes[p].max_backtracks)});
  }
  schedule.print();

  std::vector<CircuitRow> rows;
  for (const std::string& name : names) {
    const netlist::Circuit c = make_table_circuit(name);
    CircuitRow row;
    row.name = name;
    row.table3 = is_table3(name);
    row.from_file = gen::resolves_to_file(name);
    row.depth = netlist::sequential_depth(c);
    const fault::FaultList faults = fault::collapse(c);
    row.faults = faults.size();
    for (const bool ga : {true, false}) {
      const util::Stopwatch sw;
      EngineRun& run = ga ? row.ga_hitec : row.hitec;
      const hybrid::HybridConfig cfg = row_config(ga, options.seed, row.table3);
      run.result = bench::run_hybrid(c, faults, cfg);
      run.time_s = sw.seconds();
    }
    std::printf("%-8s GA-HITEC det %zu unt %zu (%s)  HITEC det %zu unt %zu "
                "(%s)\n",
                name.c_str(), row.ga_hitec.result.detected(),
                row.ga_hitec.result.untestable(),
                util::format_duration(row.ga_hitec.time_s).c_str(),
                row.hitec.result.detected(), row.hitec.result.untestable(),
                util::format_duration(row.hitec.time_s).c_str());
    std::fflush(stdout);
    rows.push_back(std::move(row));
  }

  // Identity across execution shapes: fault-sim threads and targeting lanes
  // are pure execution parallelism and must never move a bit.
  std::vector<const CircuitRow*> smallest;
  for (const CircuitRow& row : rows) smallest.push_back(&row);
  std::stable_sort(smallest.begin(), smallest.end(),
                   [](const CircuitRow* a, const CircuitRow* b) {
                     return a->faults < b->faults;
                   });
  smallest.resize(std::min(smallest.size(), kIdentityRows));
  bool consistent = true;
  std::vector<std::string> identity_rows;
  for (const CircuitRow* row : smallest) {
    identity_rows.push_back(row->name);
    const netlist::Circuit c = make_table_circuit(row->name);
    const fault::FaultList faults = fault::collapse(c);
    for (const bool ga : {true, false}) {
      hybrid::HybridConfig cfg = row_config(ga, options.seed, row->table3);
      const session::SessionResult& base =
          ga ? row->ga_hitec.result : row->hitec.result;
      const char* engine = ga ? "GA-HITEC" : "HITEC";
      cfg.parallel.threads = 4;
      if (!bench::same_bits(base, bench::run_hybrid(c, faults, cfg))) {
        std::printf("ERROR: %s %s diverges at 4 fault-sim threads\n",
                    row->name.c_str(), engine);
        consistent = false;
      }
      if (ga) continue;
      cfg.parallel.threads = 1;
      cfg.target_parallel.lanes = 4;
      if (!bench::same_bits(base, bench::run_hybrid(c, faults, cfg))) {
        std::printf("ERROR: %s %s diverges on 4 targeting lanes\n",
                    row->name.c_str(), engine);
        consistent = false;
      }
    }
  }

  print_comparison("Table II: ISCAS89 rows", rows, false);
  print_comparison("Table III: synthesized circuits (GA sequence lengths "
                   "24/48)",
                   rows, true);

  std::printf("\nFigure 1: flowchart edges taken by GA-HITEC\n");
  std::vector<std::string> flow_header = {"Circuit"};
  for (const auto& [name, member] : kFlow) flow_header.push_back(name);
  util::TablePrinter flow(flow_header);
  for (const CircuitRow& row : rows) {
    std::vector<std::string> cells = {row.name};
    for (const auto& [name, member] : kFlow) {
      cells.push_back(std::to_string(row.ga_hitec.result.counters.*member));
    }
    flow.add_row(std::move(cells));
  }
  flow.print();

  util::JsonWriter json(util::JsonWriter::Style::kPretty);
  json.begin_object();
  json.field("bench", "tables");
  json.field("hardware_concurrency", util::ParallelConfig{}.resolved());
  json.field("seed", options.seed);
  json.field("backtracks", bench::kTableBacktracks);
  json.field("solutions", ga_shape.max_solutions_per_fault);
  json.key("names").begin_array();
  for (const std::string& name : names) json.value(name);
  json.end_array();
  json.key("identity_rows").begin_array();
  for (const std::string& name : identity_rows) json.value(name);
  json.end_array();
  json.field("consistent_across_configs", consistent);
  json.key("circuits").begin_array();
  for (const CircuitRow& row : rows) {
    json.begin_object();
    json.field("name", row.name);
    json.field("table", row.table3 ? "III" : "II");
    json.field("source", row.from_file ? "data file" : "generated");
    json.field("depth", row.depth);
    json.field("faults", row.faults);
    json.key("results").begin_array();
    write_engine(json, "ga-hitec", row.ga_hitec);
    write_engine(json, "hitec", row.hitec);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  if (!json.write_file("BENCH_tables.json")) {
    std::fprintf(stderr, "cannot write BENCH_tables.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_tables.json%s\n",
              consistent ? "" : " (INCONSISTENT RESULTS)");
  return consistent ? 0 : 1;
}
