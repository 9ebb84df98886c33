#include "ga/genetic.h"

#include <algorithm>
#include <stdexcept>

namespace gatpg::ga {

GaEngine::GaEngine(GaConfig config) : config_(config), rng_(config.seed) {
  if (config_.population_size == 0 || config_.population_size % 2 != 0) {
    throw std::invalid_argument("population size must be even and nonzero");
  }
  if (config_.chromosome_bits == 0) {
    throw std::invalid_argument("chromosome_bits must be nonzero");
  }
  const double p = config_.mutation_probability;
  if (p > 0.0 && p < 1.0) {
    mutation_threshold_ = util::Rng::chance_threshold(p);
  }
}

Chromosome GaEngine::random_chromosome() {
  Chromosome c(config_.chromosome_bits);
  for (auto& bit : c) bit = rng_.bit() ? 1 : 0;
  return c;
}

void GaEngine::crossover(const Chromosome& a, const Chromosome& b,
                         Chromosome& c1, Chromosome& c2) {
  c1 = a;
  c2 = b;
  if (!rng_.chance(config_.crossover_probability)) return;
  for (std::size_t i = 0; i < c1.size(); ++i) {
    if (rng_.bit()) std::swap(c1[i], c2[i]);
  }
}

void GaEngine::mutate(Chromosome& c) {
  // rng_.chance(p) per bit, draw for draw: no draw at the edges.
  const double p = config_.mutation_probability;
  if (p <= 0.0) return;
  if (p >= 1.0) {
    for (auto& bit : c) bit ^= 1;
    return;
  }
  for (auto& bit : c) {
    if (rng_() < mutation_threshold_) bit ^= 1;
  }
}

std::vector<std::size_t> GaEngine::tournament_parents(
    std::span<const double> fitness, util::Rng& rng) {
  const std::size_t n = fitness.size();
  std::vector<std::size_t> parents;
  parents.reserve(n);
  std::vector<std::size_t> pool(n);
  // Two passes: each pass permutes the population into n/2 disjoint pairs
  // and selects the better of each pair, so after two passes n parents have
  // been drawn and every individual took part in exactly two tournaments.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < n; ++i) pool[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.below(i)]);
    }
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      const std::size_t a = pool[i];
      const std::size_t b = pool[i + 1];
      parents.push_back(fitness[a] >= fitness[b] ? a : b);
    }
  }
  return parents;
}

std::vector<std::size_t> GaEngine::select_parents(
    std::span<const double> fitness) {
  if (config_.selection == SelectionScheme::kTournamentWithoutReplacement) {
    return tournament_parents(fitness, rng_);
  }
  // Proportionate (roulette wheel).  Negative fitness is clamped to zero; a
  // degenerate all-zero wheel falls back to uniform draws.  The wheel is a
  // prefix-sum searched with std::lower_bound — O(log n) per draw instead
  // of the O(n) linear scan, with one rng_.uniform() (or rng_.below on the
  // degenerate wheel) per parent in the same order as before, so seeded
  // runs draw the same random stream.  lower_bound matches the scan's
  // boundary rule: the first index whose cumulative weight reaches the
  // spin wins, and zero-weight slots are skipped in favor of the first
  // slot of each tie run.
  const std::size_t n = fitness.size();
  std::vector<double> cumulative(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += std::max(fitness[i], 0.0);
    cumulative[i] = total;
  }
  std::vector<std::size_t> parents(n);
  for (auto& p : parents) {
    if (total <= 0.0) {
      p = rng_.below(n);
      continue;
    }
    const double spin = rng_.uniform() * total;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), spin);
    p = it == cumulative.end()
            ? n - 1
            : static_cast<std::size_t>(it - cumulative.begin());
  }
  return parents;
}

GaResult GaEngine::run(const BatchEvaluator& evaluate) {
  const std::size_t n = config_.population_size;
  std::vector<Chromosome> population(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < config_.seeds.size()) {
      Chromosome seeded = config_.seeds[i];
      seeded.resize(config_.chromosome_bits, 0);
      population[i] = std::move(seeded);
    } else {
      population[i] = random_chromosome();
    }
  }
  // Children breed into `next`, which then swaps with `population`: after
  // the first generation no chromosome is allocated.
  std::vector<Chromosome> next(n, Chromosome(config_.chromosome_bits));
  std::vector<double> fitness(n, 0.0);

  GaResult result;
  result.best_fitness = -1.0;

  // "m generations" counts evaluated populations: the random initial
  // population is generation 1 and each breeding step produces the next.
  for (unsigned gen = 1; gen <= config_.generations; ++gen) {
    const bool stop = evaluate(population, fitness);
    result.evaluations += n;
    result.generations_run = gen;
    for (std::size_t i = 0; i < n; ++i) {
      if (fitness[i] > result.best_fitness) {
        result.best_fitness = fitness[i];
        result.best = population[i];
      }
    }
    if (stop) {
      result.stopped_early = true;
      break;
    }
    if (gen == config_.generations) break;

    const std::vector<std::size_t> parents = select_parents(fitness);
    for (std::size_t i = 0; i + 1 < parents.size(); i += 2) {
      crossover(population[parents[i]], population[parents[i + 1]], next[i],
                next[i + 1]);
      mutate(next[i]);
      mutate(next[i + 1]);
    }
    population.swap(next);
  }
  return result;
}

}  // namespace gatpg::ga
