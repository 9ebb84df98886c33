// Shared harness pieces for the bench binaries: option parsing, circuit
// loading, the wall-clock-free hybrid run with its bit-identity check, and
// the justification problems the §IV-A ablations hand to the GA.
//
// No piece here reads the clock to decide anything: every search is bounded
// by backtracks, generations and forward solutions, so a bench row is a pure
// function of (circuit, config, seed) and committed snapshots can be
// exact-match gated by tools/check_bench.py.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/faultlist.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/circuit.h"
#include "session/session.h"
#include "sim/seqsim.h"

namespace gatpg::bench {

struct BenchOptions {
  bool full = false;  // include the slowest circuits
  std::uint64_t seed = 1;
  /// Worker threads for fault simulation / GA evaluation (0 =
  /// hardware_concurrency, 1 = serial); results are thread-count-invariant.
  unsigned threads = 0;
};

/// Builds a circuit by name through gen::make_circuit.  An unknown name
/// prints the valid registry names to stderr and exits with status 2.
netlist::Circuit load_circuit(const std::string& name);

/// Parses --full, --seed=N and --threads=N; everything else is returned as
/// a positional arg (circuit names and bench-specific flags).
BenchOptions parse_options(int argc, char** argv,
                           std::vector<std::string>* positional = nullptr);

/// `v` as 16 lowercase hex digits (digests in bench JSON).
std::string to_hex(std::uint64_t v);

/// Runs `cfg`'s schedule over `faults` on a fresh session.
session::SessionResult run_hybrid(const netlist::Circuit& c,
                                  const fault::FaultList& faults,
                                  const hybrid::HybridConfig& cfg);

/// True when two runs ended in the same fault states, test set and digests.
bool same_bits(const session::SessionResult& a,
               const session::SessionResult& b);

/// Pass-1 backtrack budget of the Table I schedules below: one scale for
/// every row, small enough that the default bench_tables sweep takes
/// minutes on one core (EXPERIMENTS.md).
constexpr long kTableBacktracks = 10;

/// Table I's pass shapes on count budgets only: no per-fault or per-pass
/// wall-clock limit, 4 forward solutions per fault, serial.  GA-HITEC
/// (GA, GA, deterministic) gets kTableBacktracks x 1/1/100, the HITEC
/// baseline (deterministic three times) x 1/10/100, so pass 3 matches.
hybrid::HybridConfig table_config(bool ga_hitec, std::uint64_t seed);

/// A state-justification problem: the frame-0 state the forward search
/// requires to detect `fault`.
struct JustifyProblem {
  fault::Fault fault;
  sim::State3 state;
};

/// Up to `cap` problems, in collapsed-fault order: one per fault whose
/// first forward solution (2000 backtracks) needs a defined state.
std::vector<JustifyProblem> harvest_problems(const netlist::Circuit& c,
                                             std::size_t cap);

}  // namespace gatpg::bench
