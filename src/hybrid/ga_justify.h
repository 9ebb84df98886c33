// GA-based state justification — the paper's core contribution (§IV).
//
// Each GA individual encodes a candidate input sequence (binary coding, one
// vector per sequence position, vectors laid out contiguously along the
// string).  Candidates are simulated 64 at a time on two bit-parallel
// machines: the good machine continues from the current good-circuit state
// (the state after all previously generated tests), the faulty machine —
// with the target fault injected — starts from the all-unknown state, as the
// paper prescribes instead of resimulating the faulty machine over the whole
// test set.  After every vector the reached states are compared against the
// desired states; the first candidate prefix that matches both terminates
// the search.  Otherwise the GA evolves for a bounded number of generations
// and reports its best fitness:
//
//   fitness = 0.9 * (#matching flip-flops, good machine)
//           + 0.1 * (#matching flip-flops, faulty machine)
//
// (weights configurable; the unequal weighting is ablated in
// bench_fitness_weights).
#pragma once

#include <optional>

#include "fault/fault.h"
#include "ga/genetic.h"
#include "sim/seqsim.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace gatpg::hybrid {

struct GaJustifyConfig {
  std::size_t population = 64;  // multiple of 64 (word parallelism)
  /// Fans the 64-candidate sub-batches of each generation across the worker
  /// pool.  Results are bit-identical for any thread count: the early exit
  /// is a lowest-batch-wins reduction matching the serial scan order.
  util::ParallelConfig parallel;
  unsigned generations = 4;
  unsigned sequence_length = 8;
  double good_weight = 0.9;
  double faulty_weight = 0.1;
  ga::SelectionScheme selection =
      ga::SelectionScheme::kTournamentWithoutReplacement;
  /// Squares the raw fitness before handing it to selection (no-op under
  /// tournament selection — reproduced by bench_selection).
  bool square_fitness = false;
  std::uint64_t seed = 1;
  /// Input sequences encoded into the initial population's first slots
  /// (StateStore reachable-state and near-miss harvest); longer sequences
  /// are truncated to sequence_length, shorter ones padded with 0-vectors,
  /// X inputs encoded as 0.  Empty = fully random init, bit-identical to
  /// the pre-seeding behavior.
  std::vector<sim::Sequence> seeds;
};

struct GaJustifyResult {
  bool success = false;
  /// On success: the justifying prefix (the first candidate prefix that
  /// reached both desired states).  On failure: the best individual's full
  /// decoded sequence — a near miss callers may log for cross-pass seeding
  /// (empty only when the GA never evaluated anything).
  sim::Sequence sequence;
  double best_fitness = 0.0;
  std::size_t evaluations = 0;
  unsigned generations_run = 0;
};

class GaStateJustifier {
 public:
  explicit GaStateJustifier(const netlist::Circuit& c) : c_(c) {}

  /// Searches for a sequence that, applied from `current_good_state` (good
  /// machine) and the all-X state (faulty machine, fault injected), reaches
  /// `desired_good` / `desired_faulty`.
  GaJustifyResult justify(const fault::Fault& fault,
                          const sim::State3& desired_good,
                          const sim::State3& desired_faulty,
                          const sim::State3& current_good_state,
                          const GaJustifyConfig& config,
                          const util::Deadline& deadline) const;

 private:
  const netlist::Circuit& c_;
};

}  // namespace gatpg::hybrid
