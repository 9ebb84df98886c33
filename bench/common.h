// Shared harness pieces for the table-reproduction benches.
//
// Each bench binary reproduces one table/figure of the paper.  The central
// routine runs both test generators (GA-HITEC and the HITEC baseline) on a
// circuit with the paper's pass schedules (wall-clock limits scaled by
// --time-scale) and prints rows in the paper's format: one line per pass
// with cumulative Det / Vec / Time / Unt.
//
// Absolute numbers differ from the 1995 paper by construction (different
// hardware, generated analog circuits); the *shape* — who detects more per
// pass, roughly equal untestable counts after the deterministic pass,
// where the hybrid wins — is the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fault/grading.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/circuit.h"
#include "netlist/depth.h"
#include "session/observer.h"
#include "util/tableprint.h"

namespace gatpg::bench {

struct BenchOptions {
  double time_scale = 0.01;
  /// Wall-clock cap per pass per engine (keeps default bench sweeps
  /// bounded; the paper ran uncapped for up to 39 hours).  0 = uncapped.
  double pass_budget_s = 2.0;
  bool full = false;  // include the slowest circuits
  std::uint64_t seed = 1;
  /// Worker threads for fault simulation / GA evaluation (0 =
  /// hardware_concurrency, 1 = serial); results are thread-count-invariant.
  unsigned threads = 0;
  /// When non-empty, the bench writes machine-readable results here.
  std::string json_path;
};

/// Builds a circuit by name through gen::make_circuit.  An unknown name
/// prints the valid registry names to stderr and exits with status 2.
netlist::Circuit load_circuit(const std::string& name);

/// Parses --time-scale=X, --pass-budget=X, --full, --seed=N, --threads=N,
/// --json=FILE; everything else is returned as a positional arg (circuit
/// names for the table benches).
BenchOptions parse_options(int argc, char** argv,
                           std::vector<std::string>* positional = nullptr);

/// Machine-readable bench output, collected through the session-layer
/// ProgressObserver hook: one record per generator run with its per-pass
/// cumulative rows, written as a JSON array.
class JsonReport {
 public:
  /// Observer for one generator run.  Attach via the generator's observer
  /// parameter; the record is appended to the report on session end.  Must
  /// stay alive (and at a stable address) for the whole run.
  class Run : public session::ProgressObserver {
   public:
    Run(JsonReport* report, std::string circuit, std::string engine);

    void on_pass_end(const session::Session& session, std::size_t pass_index,
                     const session::PassOutcome& outcome) override;
    void on_session_end(const session::Session& session,
                        const session::SessionResult& result) override;

   private:
    JsonReport* report_;
    std::string circuit_;
    std::string engine_;
    std::vector<session::PassOutcome> passes_;
  };

  /// Makes an observer feeding this report; `report` may be null (the
  /// returned Run is then inert), so call sites need no branching on
  /// whether --json was given.
  static Run observe(JsonReport* report, std::string circuit,
                     std::string engine);

  bool empty() const { return records_.empty(); }
  /// Writes the collected records as a JSON array; returns false on I/O
  /// failure.
  bool write_file(const std::string& path) const;

 private:
  friend class Run;
  struct Record {
    std::string circuit;
    std::string engine;
    std::size_t total_faults = 0;
    std::size_t detected = 0;
    std::size_t untestable = 0;
    std::size_t vectors = 0;
    std::vector<session::PassOutcome> passes;
  };
  std::vector<Record> records_;
};

struct ComparisonRow {
  std::string circuit;
  unsigned depth = 0;
  std::size_t total_faults = 0;
  session::SessionResult ga_hitec;
  session::SessionResult hitec;
};

/// Runs both engines on one circuit.  `seq_len_override` (pair for passes
/// 1/2) reproduces the paper's fixed sequence lengths for the synthesized
/// circuits; nullopt uses the 4x/8x sequential-depth rule.  When `json` is
/// given, both runs are recorded through JsonReport observers.
ComparisonRow run_comparison(
    const netlist::Circuit& c, const BenchOptions& options,
    std::optional<std::pair<unsigned, unsigned>> seq_len_override =
        std::nullopt,
    JsonReport* json = nullptr);

/// Appends the paper-style three-line block for one circuit to a printer
/// with columns: Circuit Depth Faults | Det Vec Time Unt | Det Vec Time Unt.
void add_comparison_rows(util::TablePrinter& table, const ComparisonRow& row);

/// The standard header for Table II/III style output: the `title` line, the
/// GA-HITEC / HITEC column banner, and the table printer itself.
util::TablePrinter make_comparison_table();
void print_comparison_banner();

/// One-line-per-engine summary table (bench_alternatives style): columns
/// Circuit Engine Det Unt Vec Time Cov%.
util::TablePrinter make_engine_table();
void add_engine_row(util::TablePrinter& table, const std::string& circuit,
                    const std::string& engine, std::size_t total_faults,
                    const session::SessionResult& result, double time_s);

/// Writes `report` to options.json_path when set; prints a confirmation or
/// error line.  No-op when --json was not given.
void finish_json(const BenchOptions& options, const JsonReport& report);

}  // namespace gatpg::bench
