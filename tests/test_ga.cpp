#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "ga/codec.h"
#include "ga/genetic.h"

namespace gatpg::ga {
namespace {

std::size_t ones(const Chromosome& c) {
  return static_cast<std::size_t>(std::count(c.begin(), c.end(), 1));
}

TEST(GaEngine, RejectsBadConfig) {
  GaConfig cfg;
  cfg.population_size = 63;  // odd
  cfg.chromosome_bits = 8;
  EXPECT_THROW(GaEngine{cfg}, std::invalid_argument);
  cfg.population_size = 64;
  cfg.chromosome_bits = 0;
  EXPECT_THROW(GaEngine{cfg}, std::invalid_argument);
}

TEST(GaEngine, RunsExactlyConfiguredGenerations) {
  GaConfig cfg;
  cfg.population_size = 8;
  cfg.generations = 4;
  cfg.chromosome_bits = 16;
  GaEngine engine(cfg);
  int batches = 0;
  engine.run([&](std::span<const Chromosome> pop, std::span<double> fit) {
    ++batches;
    for (std::size_t i = 0; i < pop.size(); ++i) fit[i] = 0.0;
    return false;
  });
  EXPECT_EQ(batches, 4);
}

TEST(GaEngine, EarlyStopTerminatesImmediately) {
  GaConfig cfg;
  cfg.population_size = 8;
  cfg.generations = 50;
  cfg.chromosome_bits = 16;
  GaEngine engine(cfg);
  int batches = 0;
  const GaResult r =
      engine.run([&](std::span<const Chromosome> pop, std::span<double> fit) {
        ++batches;
        for (std::size_t i = 0; i < pop.size(); ++i) fit[i] = 1.0;
        return true;
      });
  EXPECT_EQ(batches, 1);
  EXPECT_TRUE(r.stopped_early);
  EXPECT_EQ(r.generations_run, 1u);
}

TEST(GaEngine, BestIndividualIsSaved) {
  GaConfig cfg;
  cfg.population_size = 16;
  cfg.generations = 6;
  cfg.chromosome_bits = 24;
  cfg.seed = 3;
  GaEngine engine(cfg);
  double best_seen = -1.0;
  const GaResult r =
      engine.run([&](std::span<const Chromosome> pop, std::span<double> fit) {
        for (std::size_t i = 0; i < pop.size(); ++i) {
          fit[i] = static_cast<double>(ones(pop[i]));
          best_seen = std::max(best_seen, fit[i]);
        }
        return false;
      });
  EXPECT_DOUBLE_EQ(r.best_fitness, best_seen);
  EXPECT_DOUBLE_EQ(static_cast<double>(ones(r.best)), best_seen);
}

TEST(GaEngine, DeterministicForSeed) {
  auto run_once = [](std::uint64_t seed) {
    GaConfig cfg;
    cfg.population_size = 16;
    cfg.generations = 5;
    cfg.chromosome_bits = 32;
    cfg.seed = seed;
    return GaEngine(cfg).run(
        [](std::span<const Chromosome> pop, std::span<double> fit) {
          for (std::size_t i = 0; i < pop.size(); ++i) {
            fit[i] = static_cast<double>(
                std::count(pop[i].begin(), pop[i].end(), 1));
          }
          return false;
        });
  };
  const GaResult a = run_once(5), b = run_once(5), c = run_once(6);
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
  EXPECT_NE(a.best == c.best && a.best_fitness == c.best_fitness, true)
      << "different seeds should explore differently";
}

TEST(GaEngine, SolvesOneMax) {
  GaConfig cfg;
  cfg.population_size = 64;
  cfg.generations = 60;
  cfg.chromosome_bits = 48;
  cfg.seed = 7;
  GaEngine engine(cfg);
  const GaResult r =
      engine.run([](std::span<const Chromosome> pop, std::span<double> fit) {
        for (std::size_t i = 0; i < pop.size(); ++i) {
          fit[i] = static_cast<double>(
              std::count(pop[i].begin(), pop[i].end(), 1));
        }
        return false;
      });
  // Selection pressure must push well beyond a random draw (expected 24).
  EXPECT_GE(r.best_fitness, 44.0);
}

TEST(TournamentSelection, EveryIndividualPlaysTwice) {
  // In tournament *without replacement*, each pass pairs everyone exactly
  // once, so across the two passes each index appears in exactly two
  // tournaments and can be selected at most twice.
  util::Rng rng(5);
  std::vector<double> fitness(16);
  std::iota(fitness.begin(), fitness.end(), 0.0);
  const auto parents = GaEngine::tournament_parents(fitness, rng);
  EXPECT_EQ(parents.size(), 16u);
  std::map<std::size_t, int> times;
  for (auto p : parents) ++times[p];
  for (const auto& [idx, count] : times) {
    EXPECT_LE(count, 2) << "index " << idx;
  }
  // The best individual always wins its tournaments: selected exactly twice.
  EXPECT_EQ(times[15], 2);
  // The worst individual can never win.
  EXPECT_EQ(times.count(0), 0u);
}

TEST(TournamentSelection, InvariantUnderMonotoneTransform) {
  // Squaring fitness must not change tournament outcomes (§IV-A).
  std::vector<double> fitness{3, 9, 1, 7, 2, 8, 5, 4};
  std::vector<double> squared;
  for (double f : fitness) squared.push_back(f * f);
  util::Rng rng1(42), rng2(42);
  EXPECT_EQ(GaEngine::tournament_parents(fitness, rng1),
            GaEngine::tournament_parents(squared, rng2));
}

TEST(ProportionateSelection, BiasedTowardFitness) {
  GaConfig cfg;
  cfg.population_size = 64;
  cfg.generations = 40;
  cfg.chromosome_bits = 48;
  cfg.selection = SelectionScheme::kProportionate;
  cfg.seed = 11;
  const GaResult r = GaEngine(cfg).run(
      [](std::span<const Chromosome> pop, std::span<double> fit) {
        for (std::size_t i = 0; i < pop.size(); ++i) {
          fit[i] = static_cast<double>(
              std::count(pop[i].begin(), pop[i].end(), 1));
        }
        return false;
      });
  EXPECT_GE(r.best_fitness, 36.0);  // weaker pressure than tournament, but
                                    // clearly better than random (24)
}

TEST(Crossover, UniformPreservesPerPositionMultiset) {
  // With a population of two, pc = 1 and pm = 0, the two children of the two
  // parents must at every position carry exactly the parents' two bits
  // (uniform crossover only swaps, never invents).  And with 64 positions,
  // at least one swap should actually occur.
  GaConfig cfg;
  cfg.population_size = 2;
  cfg.generations = 2;
  cfg.chromosome_bits = 64;
  cfg.mutation_probability = 0.0;
  cfg.seed = 9;
  GaEngine engine(cfg);
  std::vector<Chromosome> parents, children;
  engine.run([&](std::span<const Chromosome> pop, std::span<double> fit) {
    if (parents.empty()) {
      parents.assign(pop.begin(), pop.end());
    } else {
      children.assign(pop.begin(), pop.end());
    }
    for (std::size_t i = 0; i < pop.size(); ++i) fit[i] = 1.0;
    return false;
  });
  ASSERT_EQ(children.size(), 2u);
  // Whatever pair selection picked, every child bit must come from one of
  // the two population members at the same position (crossover only swaps,
  // and pm = 0 means no invention).
  for (const auto& child : children) {
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_TRUE(child[i] == parents[0][i] || child[i] == parents[1][i])
          << "position " << i;
    }
  }
}

TEST(Mutation, FlipsApproximatelyExpectedFraction) {
  GaConfig cfg;
  cfg.population_size = 64;
  cfg.generations = 2;
  cfg.chromosome_bits = 256;
  cfg.crossover_probability = 0.0;  // isolate mutation
  cfg.mutation_probability = 1.0 / 64.0;
  cfg.seed = 21;
  GaEngine engine(cfg);
  std::vector<Chromosome> gen1, gen2;
  engine.run([&](std::span<const Chromosome> pop, std::span<double> fit) {
    if (gen1.empty()) {
      gen1.assign(pop.begin(), pop.end());
    } else {
      gen2.assign(pop.begin(), pop.end());
    }
    for (std::size_t i = 0; i < pop.size(); ++i) fit[i] = 1.0;
    return false;
  });
  // All fitnesses equal -> selection is fitness-neutral; compare the bit
  // flip rate between generations in aggregate.
  std::size_t flips = 0, bits = 0;
  // Without tracking lineage we measure population-level bit frequency
  // stability instead: the per-position one-counts should stay close.
  for (std::size_t pos = 0; pos < 256; ++pos) {
    int a = 0, b = 0;
    for (const auto& c : gen1) a += c[pos];
    for (const auto& c : gen2) b += c[pos];
    flips += static_cast<std::size_t>(std::abs(a - b));
    bits += 64;
  }
  EXPECT_LT(static_cast<double>(flips) / static_cast<double>(bits), 0.2);
}

// Breeding stream pin: an FNV-1a digest of every population the engine
// hands to the evaluator, over both selection schemes, a seeded initial
// population and the mutation-probability edge cases.  The expected values
// were recorded before the engine reused its population buffers and drew
// mutations against a precomputed threshold, so any change to the draw
// order, the draw count or a draw's outcome shows up here.
//
// gtest names each case after the raw bytes of its BreedCase, so the struct
// must have no padding: padding bytes hold whatever the stack held, which
// varies with the build and with address-space randomisation, and the case
// names with them.  `name_tag` fills the three bytes after `seeded`; its
// values keep each case under the name it has always been listed as.
struct BreedCase {
  SelectionScheme selection;
  bool seeded;
  std::uint8_t name_tag[3];
  double mutation_probability;
  std::uint64_t digest;
};
static_assert(sizeof(BreedCase) == 4 + 1 + 3 + 8 + 8,
              "BreedCase must have no padding bytes");

class GaEngineBreeding : public ::testing::TestWithParam<BreedCase> {};

TEST_P(GaEngineBreeding, PopulationDigestIsPinned) {
  const BreedCase& bc = GetParam();
  GaConfig cfg;
  cfg.population_size = 12;
  cfg.generations = 7;
  cfg.chromosome_bits = 37;
  cfg.selection = bc.selection;
  cfg.mutation_probability = bc.mutation_probability;
  cfg.seed = 17;
  if (bc.seeded) {
    // Shorter, exact and longer than chromosome_bits, to exercise padding
    // and truncation.
    cfg.seeds = {Chromosome(5, 1), Chromosome(37, 1), Chromosome(50, 0)};
    cfg.seeds[2][3] = 1;
  }
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t x) {
    digest ^= x;
    digest *= 0x100000001b3ULL;
  };
  const GaResult r = GaEngine(cfg).run(
      [&](std::span<const Chromosome> pop, std::span<double> fit) {
        mix(pop.size());
        for (std::size_t i = 0; i < pop.size(); ++i) {
          double score = 0.0;
          for (std::size_t b = 0; b < pop[i].size(); ++b) {
            mix(pop[i][b]);
            score += pop[i][b] * static_cast<double>((b * 7) % 5);
          }
          fit[i] = score;
        }
        return false;
      });
  mix(static_cast<std::uint64_t>(r.best_fitness));
  for (const std::uint8_t bit : r.best) mix(bit);
  EXPECT_EQ(digest, bc.digest) << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, GaEngineBreeding,
    ::testing::Values(
        BreedCase{SelectionScheme::kTournamentWithoutReplacement, false,
                  {0x7F, 0, 0}, 0.0, 0x26ffd30aced81c95ULL},
        BreedCase{SelectionScheme::kTournamentWithoutReplacement, false,
                  {0x7F, 0, 0}, 1.0 / 64.0, 0xc9dc374d59791773ULL},
        BreedCase{SelectionScheme::kTournamentWithoutReplacement, false,
                  {0x55, 0, 0}, 1.0, 0xdae239a53250e2a0ULL},
        BreedCase{SelectionScheme::kTournamentWithoutReplacement, true,
                  {0, 0, 0}, 1.0 / 64.0, 0x61fe381fea7db04fULL},
        BreedCase{SelectionScheme::kProportionate, false, {0x55, 0, 0},
                  0.0, 0x8228a961c7b3f337ULL},
        BreedCase{SelectionScheme::kProportionate, false, {0, 0, 0},
                  1.0 / 64.0, 0x513c36036345c248ULL},
        BreedCase{SelectionScheme::kProportionate, false, {0x7F, 0, 0},
                  1.0, 0x7cf307ee9405333eULL},
        BreedCase{SelectionScheme::kProportionate, true, {0, 0, 0},
                  1.0 / 64.0, 0xd4f068856baa2a32ULL}),
    [](const ::testing::TestParamInfo<BreedCase>& info) {
      return std::to_string(info.index);
    });

TEST(GaCodec, EncodeDecodeAndPackAgreeOnTheGeneLayout) {
  using sim::V3;
  // Two inputs, three vectors: gene t * 2 + i is input i in vector t.
  const Chromosome chrom = {1, 0, 0, 1, 1, 1};
  const sim::Sequence seq = decode(chrom, 2, 3);
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0], (sim::Vector3{V3::k1, V3::k0}));
  EXPECT_EQ(seq[1], (sim::Vector3{V3::k0, V3::k1}));
  EXPECT_EQ(seq[2], (sim::Vector3{V3::k1, V3::k1}));
  EXPECT_EQ(encode(seq, 2, 3), chrom);
  // X genes encode as 0, and a short sequence is zero-padded.
  EXPECT_EQ(encode({{V3::kX, V3::k1}}, 2, 2), (Chromosome{0, 1, 0, 0}));

  // Slot s of input i's word is individual s's gene; other slots read 0.
  const std::vector<Chromosome> batch = {chrom, {0, 1, 1, 0, 0, 0}};
  std::vector<sim::PackedV3> words(2);
  pack_frame(batch, 2, 1, words);
  EXPECT_EQ(words[0].get(0), V3::k0);
  EXPECT_EQ(words[0].get(1), V3::k1);
  EXPECT_EQ(words[1].get(0), V3::k1);
  EXPECT_EQ(words[1].get(1), V3::k0);
  EXPECT_EQ(words[1].get(63), V3::k0);
}

}  // namespace
}  // namespace gatpg::ga
