#include "hybrid/output_justify.h"

#include <stdexcept>

#include "ga/codec.h"

namespace gatpg::hybrid {

using sim::PackedV3;
using sim::V3;

GaJustifyResult GaOutputJustifier::justify(
    const std::vector<OutputGoal>& goals, const sim::State3& current_state,
    const GaJustifyConfig& config, const util::Deadline& deadline) const {
  const std::size_t num_pi = c_.primary_inputs().size();
  if (config.population == 0 || config.population % 64 != 0) {
    throw std::invalid_argument("GA population must be a multiple of 64");
  }
  GaJustifyResult result;
  if (num_pi == 0 || config.sequence_length == 0 || goals.empty()) {
    return result;
  }
  const auto pos = c_.primary_outputs();
  for (const auto& goal : goals) {
    if (goal.po_index >= pos.size() || goal.value == V3::kX) {
      throw std::invalid_argument("bad output goal");
    }
  }

  ga::GaConfig ga_config;
  ga_config.population_size = config.population;
  ga_config.generations = config.generations;
  ga_config.chromosome_bits = config.sequence_length * num_pi;
  ga_config.selection = config.selection;
  ga_config.seed = config.seed;

  auto evaluate = [&](std::span<const ga::Chromosome> population,
                      std::span<double> fitness) -> bool {
    for (std::size_t base = 0; base < population.size(); base += 64) {
      const std::size_t count =
          std::min<std::size_t>(64, population.size() - base);
      sim::SequenceSimulator machine(c_);
      machine.set_state(current_state);

      std::vector<PackedV3> pi_words(num_pi);
      std::vector<unsigned> best_match(count, 0);
      for (unsigned t = 0; t < config.sequence_length; ++t) {
        ga::pack_frame(population.subspan(base, count), num_pi, t, pi_words);
        machine.apply_packed(pi_words);

        std::uint64_t all_match = ~0ULL;
        for (const auto& goal : goals) {
          const PackedV3 w = machine.value(pos[goal.po_index]);
          all_match &= goal.value == V3::k1 ? w.v1 : w.v0;
        }
        for (std::size_t s = 0; s < count; ++s) {
          unsigned matched = 0;
          for (const auto& goal : goals) {
            const PackedV3 w = machine.value(pos[goal.po_index]);
            if (w.get(static_cast<unsigned>(s)) == goal.value) ++matched;
          }
          best_match[s] = std::max(best_match[s], matched);
        }
        if (all_match != 0) {
          const unsigned slot =
              static_cast<unsigned>(__builtin_ctzll(all_match));
          result.success = true;
          result.sequence = ga::decode(population[base + slot], num_pi, t + 1);
          for (std::size_t s = 0; s < population.size(); ++s) fitness[s] = 0.0;
          return true;
        }
        machine.clock();
      }
      for (std::size_t s = 0; s < count; ++s) {
        fitness[base + s] = static_cast<double>(best_match[s]);
      }
    }
    return deadline.expired();
  };

  const ga::GaResult ga_result = ga::GaEngine(ga_config).run(evaluate);
  result.best_fitness = ga_result.best_fitness;
  result.evaluations = ga_result.evaluations;
  result.generations_run = ga_result.generations_run;
  return result;
}

}  // namespace gatpg::hybrid
