// Generic simple-GA engine (Goldberg-style), as specified in §II of the
// paper:
//   * binary-coded individuals,
//   * tournament selection without replacement (two random individuals are
//     removed from the pool, the better is selected; the pool refills only
//     once everyone has been removed),
//   * uniform crossover with crossover probability 1 (parents always cross;
//     each position swaps with probability 1/2),
//   * per-character mutation with probability 1/64,
//   * non-overlapping generations,
//   * the best individual seen in any generation is saved.
// Proportionate (roulette-wheel) selection is also provided, purely for the
// bench that reproduces the paper's remark that fitness squaring changes
// proportionate selection but is a no-op under tournament selection.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/rng.h"

namespace gatpg::ga {

/// A binary chromosome; each element is 0 or 1.
using Chromosome = std::vector<std::uint8_t>;

enum class SelectionScheme {
  kTournamentWithoutReplacement,
  kProportionate,
};

struct GaConfig {
  std::size_t population_size = 64;  // must be even
  unsigned generations = 4;
  std::size_t chromosome_bits = 0;
  double crossover_probability = 1.0;
  double mutation_probability = 1.0 / 64.0;
  SelectionScheme selection = SelectionScheme::kTournamentWithoutReplacement;
  std::uint64_t seed = 1;
  /// Seed individuals for the initial population: the first seeds.size()
  /// slots are taken from here (truncated to the population size; each
  /// chromosome resized to chromosome_bits, zero-padded), the remaining
  /// slots stay random.  An empty list leaves the engine's random stream —
  /// and hence seeded runs — exactly as before.
  std::vector<Chromosome> seeds;
};

struct GaResult {
  Chromosome best;
  double best_fitness = 0.0;
  unsigned generations_run = 0;
  std::size_t evaluations = 0;
  bool stopped_early = false;  // the evaluator requested termination
};

class GaEngine {
 public:
  /// Evaluates a whole population at once and writes one fitness per
  /// individual.  Returning true requests early termination (e.g. a state
  /// justification sequence was found); the engine still records fitnesses
  /// from this last batch.  Batch evaluation exists so the caller can pack
  /// 64 individuals into one bit-parallel simulation.
  using BatchEvaluator = std::function<bool(
      std::span<const Chromosome> population, std::span<double> fitness)>;

  explicit GaEngine(GaConfig config);

  /// Runs the full GA and returns the best individual found.
  GaResult run(const BatchEvaluator& evaluate);

  /// Exposed for tests: one tournament-without-replacement parent draw over
  /// an externally scored population.
  static std::vector<std::size_t> tournament_parents(
      std::span<const double> fitness, util::Rng& rng);

 private:
  Chromosome random_chromosome();
  /// Overwrites the existing children c1, c2 (no allocation once sized).
  void crossover(const Chromosome& a, const Chromosome& b, Chromosome& c1,
                 Chromosome& c2);
  void mutate(Chromosome& c);
  std::vector<std::size_t> select_parents(std::span<const double> fitness);

  GaConfig config_;
  util::Rng rng_;
  /// util::Rng::chance_threshold(mutation_probability), for 0 < p < 1.
  std::uint64_t mutation_threshold_ = 0;
};

}  // namespace gatpg::ga
