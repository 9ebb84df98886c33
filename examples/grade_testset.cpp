// Example: use the PROOFS-style fault simulator as a standalone test
// grader, comparing an ATPG-generated test set against random patterns of
// the same length — the classic motivation for targeted test generation.
//
//   ./grade_testset [circuit-name] [random-multiplier]
//
// Also demonstrates incremental grading: the fault simulator carries its
// state across run() calls, so coverage can be tracked vector-block by
// vector-block (useful for test-set truncation studies).
#include <cstdio>
#include <string>

#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "gen/registry.h"
#include "hybrid/hybrid_atpg.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace gatpg;
  const std::string name = argc > 1 ? argv[1] : "g298";
  const int multiplier = argc > 2 ? std::atoi(argv[2]) : 4;

  const auto circuit = gen::make_circuit(name);
  const auto faults = fault::collapse(circuit).faults;
  std::printf("%s: %zu collapsed faults\n", circuit.name().c_str(),
              faults.size());

  // Generate a test set.
  hybrid::HybridConfig config;
  config.schedule = session::PassSchedule::ga_hitec(0.02);
  const auto result = hybrid::HybridAtpg(circuit, config).run();
  std::printf("ATPG test set: %zu vectors\n", result.test_set.size());

  // Grade it in blocks of 16 vectors to show the coverage curve.
  {
    fault::FaultSimulator fs(circuit, faults);
    std::printf("coverage curve (ATPG):");
    for (std::size_t offset = 0; offset < result.test_set.size();
         offset += 16) {
      const std::size_t end =
          std::min(offset + 16, result.test_set.size());
      fs.run(sim::Sequence(result.test_set.begin() + offset,
                           result.test_set.begin() + end));
      std::printf(" %zu:%0.1f%%", end,
                  100.0 * static_cast<double>(fs.detected_count()) /
                      static_cast<double>(faults.size()));
    }
    std::printf("\n");
  }

  // Random patterns, `multiplier` times as many vectors.
  util::Rng rng(99);
  sim::Sequence random_seq;
  for (std::size_t i = 0; i < result.test_set.size() * multiplier; ++i) {
    sim::Vector3 v(circuit.primary_inputs().size());
    for (auto& bit : v) bit = rng.bit() ? sim::V3::k1 : sim::V3::k0;
    random_seq.push_back(v);
  }
  fault::FaultSimulator random_fs(circuit, faults);
  random_fs.run(random_seq);
  std::printf("random x%d: %zu vectors -> %zu/%zu detected\n", multiplier,
              random_seq.size(), random_fs.detected_count(), faults.size());

  fault::FaultSimulator atpg_fs(circuit, faults);
  atpg_fs.run(result.test_set);
  std::printf("ATPG:       %zu vectors -> %zu/%zu detected (+%zu proven "
              "untestable)\n",
              result.test_set.size(), atpg_fs.detected_count(), faults.size(),
              result.untestable());
  return 0;
}
