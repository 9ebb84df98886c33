#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "gen/registry.h"
#include "util/json_writer.h"

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
    if (arg.rfind("--time-scale=", 0) == 0) {
      options.time_scale = std::atof(arg.c_str() + 13);
    } else if (arg.rfind("--pass-budget=", 0) == 0) {
      options.pass_budget_s = std::atof(arg.c_str() + 14);
    } else if (arg == "--full") {
      options.full = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads =
          static_cast<unsigned>(std::strtoul(arg.c_str() + 10, nullptr, 10));
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = arg.substr(7);
    } else if (positional) {
      positional->push_back(arg);
    }
  }
  return options;
}

JsonReport::Run::Run(JsonReport* report, std::string circuit,
                     std::string engine)
    : report_(report),
      circuit_(std::move(circuit)),
      engine_(std::move(engine)) {}

void JsonReport::Run::on_pass_end(const session::Session&, std::size_t,
                                  const session::PassOutcome& outcome) {
  if (report_) passes_.push_back(outcome);
}

void JsonReport::Run::on_session_end(const session::Session&,
                                     const session::SessionResult& result) {
  if (!report_) return;
  Record record;
  record.circuit = circuit_;
  record.engine = engine_;
  record.total_faults = result.total_faults;
  record.detected = result.detected();
  record.untestable = result.untestable();
  record.vectors = result.test_set.size();
  record.passes = passes_;
  report_->records_.push_back(std::move(record));
  passes_.clear();  // a Run may observe several sessions
}

JsonReport::Run JsonReport::observe(JsonReport* report, std::string circuit,
                                    std::string engine) {
  return Run(report, std::move(circuit), std::move(engine));
}

bool JsonReport::write_file(const std::string& path) const {
  util::JsonWriter w(util::JsonWriter::Style::kPretty);
  w.begin_array();
  for (const Record& record : records_) {
    w.begin_object();
    w.field("circuit", record.circuit);
    w.field("engine", record.engine);
    w.field("total_faults", record.total_faults);
    w.field("detected", record.detected);
    w.field("untestable", record.untestable);
    w.field("vectors", record.vectors);
    w.key("passes").begin_array();
    for (const session::PassOutcome& pass : record.passes) {
      w.begin_object();
      w.field("detected", pass.detected);
      w.field("vectors", pass.vectors);
      w.field("untestable", pass.untestable);
      w.field("time_s", pass.time_s);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  return w.write_file(path);
}

void finish_json(const BenchOptions& options, const JsonReport& report) {
  if (options.json_path.empty()) return;
  if (report.write_file(options.json_path)) {
    std::printf("\nResults written to %s\n", options.json_path.c_str());
  } else {
    std::printf("\nFailed to write %s\n", options.json_path.c_str());
  }
}

ComparisonRow run_comparison(
    const netlist::Circuit& c, const BenchOptions& options,
    std::optional<std::pair<unsigned, unsigned>> seq_len_override,
    JsonReport* json) {
  ComparisonRow row;
  row.circuit = c.name();
  row.depth = netlist::sequential_depth(c);

  hybrid::HybridConfig ga_config;
  ga_config.schedule = session::PassSchedule::ga_hitec(options.time_scale);
  if (seq_len_override) {
    ga_config.schedule.passes[0].seq_len_override = seq_len_override->first;
    ga_config.schedule.passes[1].seq_len_override = seq_len_override->second;
  }
  for (auto& pass : ga_config.schedule.passes) {
    pass.pass_budget_s = options.pass_budget_s;
  }
  ga_config.seed = options.seed;
  ga_config.parallel.threads = options.threads;
  hybrid::HybridAtpg ga_engine(c, ga_config);
  row.total_faults = ga_engine.fault_list().size();
  JsonReport::Run ga_observer =
      JsonReport::observe(json, row.circuit, "ga-hitec");
  row.ga_hitec = ga_engine.run(&ga_observer);

  hybrid::HybridConfig hitec_config;
  hitec_config.schedule = session::PassSchedule::hitec(options.time_scale);
  for (auto& pass : hitec_config.schedule.passes) {
    pass.pass_budget_s = options.pass_budget_s;
  }
  hitec_config.seed = options.seed;
  hitec_config.parallel.threads = options.threads;
  JsonReport::Run hitec_observer =
      JsonReport::observe(json, row.circuit, "hitec");
  row.hitec = hybrid::HybridAtpg(c, hitec_config).run(&hitec_observer);
  return row;
}

util::TablePrinter make_comparison_table() {
  return util::TablePrinter({"Circuit", "Depth", "Faults", "|", "Det", "Vec",
                             "Time", "Unt", "|", "Det", "Vec", "Time",
                             "Unt"});
}

void print_comparison_banner() {
  std::printf("%46s %-28s %s\n", "", "GA-HITEC", "HITEC");
}

util::TablePrinter make_engine_table() {
  return util::TablePrinter(
      {"Circuit", "Engine", "Det", "Unt", "Vec", "Time", "Cov%"});
}

void add_engine_row(util::TablePrinter& table, const std::string& circuit,
                    const std::string& engine, std::size_t total_faults,
                    const session::SessionResult& result, double time_s) {
  table.add_row({circuit, engine, std::to_string(result.detected()),
                 std::to_string(result.untestable()),
                 std::to_string(result.test_set.size()),
                 util::format_duration(time_s),
                 util::format_sig(
                     100.0 * static_cast<double>(result.detected()) /
                         static_cast<double>(total_faults),
                     3)});
}

void add_comparison_rows(util::TablePrinter& table, const ComparisonRow& row) {
  const std::size_t passes =
      std::min(row.ga_hitec.passes.size(), row.hitec.passes.size());
  for (std::size_t p = 0; p < passes; ++p) {
    const auto& ga = row.ga_hitec.passes[p];
    const auto& hi = row.hitec.passes[p];
    table.add_row({
        p == 0 ? row.circuit : "",
        p == 0 ? std::to_string(row.depth) : "",
        p == 0 ? std::to_string(row.total_faults) : "",
        "|",
        std::to_string(ga.detected),
        std::to_string(ga.vectors),
        util::format_duration(ga.time_s),
        std::to_string(ga.untestable),
        "|",
        std::to_string(hi.detected),
        std::to_string(hi.vectors),
        util::format_duration(hi.time_s),
        std::to_string(hi.untestable),
    });
  }
  table.add_rule();
}

}  // namespace gatpg::bench
