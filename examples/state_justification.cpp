// Example: drive the two state-justification engines directly — the genetic
// justifier (the paper's contribution) and the deterministic reverse-time
// justifier — on the Am2910 microprogram sequencer.
//
// Target: a state in which the stack pointer is at 2 and the loop counter
// holds a specific value — the kind of deep, datapath-flavoured state that
// motivates GA justification (reaching it requires executing a coherent
// instruction sequence: JZ, pushes, counter loads).
#include <cstdio>

#include "atpg/justify.h"
#include "gen/am2910.h"
#include "hybrid/ga_justify.h"
#include "sim/seqsim.h"

int main() {
  using namespace gatpg;
  using sim::V3;

  const auto circuit = gen::make_am2910();
  const auto ffs = circuit.flip_flops();
  std::printf("am2910: %zu flip-flops\n", ffs.size());

  // Build the target: sp = 2 (bits named sp0..sp2), r = 0x005.
  sim::State3 target(ffs.size(), V3::kX);
  auto set_ff = [&](const std::string& name, bool value) {
    const auto node = circuit.find(name);
    const int index = circuit.ff_index(node);
    target[static_cast<std::size_t>(index)] = value ? V3::k1 : V3::k0;
  };
  set_ff("sp0", false);
  set_ff("sp1", true);
  set_ff("sp2", false);
  for (unsigned bit = 0; bit < 12; ++bit) {
    set_ff("r" + std::to_string(bit), (0x005u >> bit) & 1);
  }

  // 1. Genetic justification (pass-2 settings: pop 128, 8 generations).
  hybrid::GaJustifyConfig ga_config;
  ga_config.population = 128;
  ga_config.generations = 8;
  ga_config.sequence_length = 24;
  ga_config.seed = 7;
  const sim::State3 all_x(ffs.size(), V3::kX);
  const fault::Fault dummy{circuit.primary_outputs()[0], fault::kOutputPin,
                           false};
  const hybrid::GaStateJustifier ga(circuit);
  const auto ga_result =
      ga.justify(dummy, target, all_x, all_x, ga_config,
                 util::Deadline::after_seconds(10));
  if (ga_result.success) {
    std::printf("GA justified the state with a %zu-vector sequence "
                "(%zu candidate evaluations)\n",
                ga_result.sequence.size(), ga_result.evaluations);
  } else {
    std::printf("GA failed (best fitness %.2f of %zu) — this is exactly the "
                "case the hybrid hands to the deterministic engine\n",
                ga_result.best_fitness, ffs.size());
  }

  // 2. Deterministic reverse-time justification.
  atpg::SearchLimits limits;
  limits.time_limit_s = 10.0;
  limits.max_backtracks = 200000;
  limits.max_justify_depth = 24;
  atpg::DeterministicJustifier det(circuit, limits);
  const auto det_result =
      det.justify(target, util::Deadline::after_seconds(10));
  switch (det_result.status) {
    case atpg::DeterministicJustifier::Status::kJustified:
      std::printf("deterministic justification found a %zu-vector sequence "
                  "(%ld backtracks)\n",
                  det_result.sequence.size(), det.stats().backtracks);
      break;
    case atpg::DeterministicJustifier::Status::kUnjustifiable:
      std::printf("deterministic search proved the state unreachable\n");
      break;
    case atpg::DeterministicJustifier::Status::kAborted:
      std::printf("deterministic search hit its limits (%ld backtracks)\n",
                  det.stats().backtracks);
      break;
  }

  // Verify whichever sequence we got by simulation.
  const auto* seq = ga_result.success ? &ga_result.sequence
                    : det_result.status ==
                            atpg::DeterministicJustifier::Status::kJustified
                        ? &det_result.sequence
                        : nullptr;
  if (seq) {
    sim::SequenceSimulator s(circuit);
    for (auto vec : *seq) {
      for (auto& bit : vec) {
        if (bit == V3::kX) bit = V3::k0;
      }
      s.apply_vector(vec);
      s.clock();
    }
    // A don't-care literal matches whatever the flip-flop holds.
    const sim::State3 reached = s.state();
    unsigned matched = 0;
    for (std::size_t i = 0; i < target.size(); ++i) {
      matched += target[i] == V3::kX || target[i] == reached[i];
    }
    std::printf("verification: %u/%zu required flip-flops match\n", matched,
                ffs.size());
  }
  return 0;
}
