// Quickstart: generate tests for a benchmark circuit with the hybrid
// GA-HITEC engine and grade the resulting test set independently.
//
//   ./quickstart [circuit-name]     (default: s27)
//
// Demonstrates the core public API: the circuit registry, HybridAtpg with
// the paper's pass schedule, and independent coverage grading.
#include <cstdio>
#include <string>

#include "fault/grading.h"
#include "gen/registry.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/depth.h"

int main(int argc, char** argv) {
  using namespace gatpg;

  const std::string name = argc > 1 ? argv[1] : "s27";
  const netlist::Circuit circuit = gen::make_circuit(name);
  const auto stats = netlist::stats_of(circuit);
  std::printf("circuit %s: %zu PIs, %zu POs, %zu FFs, %zu gates, depth %u\n",
              circuit.name().c_str(), stats.inputs, stats.outputs,
              stats.flip_flops, stats.gates,
              netlist::sequential_depth(circuit));

  // GA-HITEC with the Table I pass structure, wall-clock limits scaled for a
  // modern machine.
  hybrid::HybridConfig config;
  config.schedule = session::PassSchedule::ga_hitec(/*time_scale=*/0.05);
  config.seed = 42;

  hybrid::HybridAtpg atpg(circuit, config);
  const session::SessionResult result = atpg.run();

  std::printf("total faults (collapsed): %zu\n", result.total_faults);
  for (std::size_t p = 0; p < result.passes.size(); ++p) {
    const auto& pass = result.passes[p];
    std::printf("pass %zu: detected %zu, vectors %zu, untestable %zu, %.2fs\n",
                p + 1, pass.detected, pass.vectors, pass.untestable,
                pass.time_s);
  }
  std::printf("GA invocations %ld, GA successes %ld, verify failures %ld\n",
              result.counters.ga_invocations, result.counters.ga_successes,
              result.counters.verify_failures);

  // Independent grading: re-simulate the produced test set from power-up
  // with a fresh fault simulator.
  const auto report = fault::grade_sequence(circuit, result.test_set);
  std::printf("independent grading: %zu/%zu detected (%.1f%%) with %zu vectors\n",
              report.detected, report.total_faults, 100.0 * report.coverage(),
              report.vectors);
  return 0;
}
