#include "hybrid/ga_justify.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <stdexcept>

namespace gatpg::hybrid {

using netlist::NodeId;
using sim::PackedV3;
using sim::Sequence;
using sim::State3;
using sim::V3;
using sim::Vector3;

namespace {

/// Decodes the first `length` vectors of a chromosome.
Sequence decode(const ga::Chromosome& chromosome, std::size_t num_pi,
                unsigned length) {
  Sequence seq(length, Vector3(num_pi));
  for (unsigned t = 0; t < length; ++t) {
    for (std::size_t i = 0; i < num_pi; ++i) {
      seq[t][i] = chromosome[t * num_pi + i] ? V3::k1 : V3::k0;
    }
  }
  return seq;
}

}  // namespace

GaJustifyResult GaStateJustifier::justify(
    const fault::Fault& fault, const State3& desired_good,
    const State3& desired_faulty, const State3& current_good_state,
    const GaJustifyConfig& config, const util::Deadline& deadline) const {
  const std::size_t num_pi = c_.primary_inputs().size();
  if (config.population == 0 || config.population % 64 != 0) {
    throw std::invalid_argument("GA population must be a multiple of 64");
  }
  if (num_pi == 0 || config.sequence_length == 0) {
    return {};
  }

  GaJustifyResult result;

  // Transition faults force conditionally: the faulty machine's overrides
  // are gated per frame by the launch activity derived from the lockstep
  // good machine (the good value of the launch line in the previous frame
  // must equal the transition's initial value).  The power-up frame cannot
  // launch, so each batch starts with a zero current-frame mask; the latch
  // mask is set before every clock edge.
  const bool trans = fault.is_transition();
  const NodeId launch_line =
      fault.pin == fault::kOutputPin
          ? fault.node
          : c_.fanins(fault.node)[static_cast<std::size_t>(fault.pin)];

  ga::GaConfig ga_config;
  ga_config.population_size = config.population;
  ga_config.generations = config.generations;
  ga_config.chromosome_bits = config.sequence_length * num_pi;
  ga_config.selection = config.selection;
  ga_config.seed = config.seed;
  ga_config.seeds.reserve(config.seeds.size());
  for (const Sequence& seed_seq : config.seeds) {
    ga::Chromosome chrom(ga_config.chromosome_bits, 0);
    const std::size_t tmax =
        std::min<std::size_t>(seed_seq.size(), config.sequence_length);
    for (std::size_t t = 0; t < tmax; ++t) {
      const std::size_t width = std::min(num_pi, seed_seq[t].size());
      for (std::size_t i = 0; i < width; ++i) {
        if (seed_seq[t][i] == V3::k1) chrom[t * num_pi + i] = 1;
      }
    }
    ga_config.seeds.push_back(std::move(chrom));
  }

  // Batch evaluator: 64 candidates per bit-parallel simulation, batches
  // fanned out across the worker pool.  Each lane owns one good/faulty
  // machine pair, built on its first batch with the fault installed and
  // reset per batch, and each batch writes a disjoint fitness range.  The
  // serial scan's early exit (first batch, in batch order, whose prefix
  // reaches both desired states — at its earliest vector, lowest slot)
  // becomes a lowest-batch-wins reduction: each batch records its own first
  // match, the winner is the matching batch with the smallest index, and an
  // atomic stop flag lets higher batches abandon early without affecting
  // the result.
  struct Machines {
    explicit Machines(const netlist::Circuit& c) : good(c), faulty(c) {}
    sim::SequenceSimulator good;
    sim::SequenceSimulator faulty;
  };
  std::vector<std::optional<Machines>> lanes(
      util::max_lanes(config.parallel, config.population, 64));

  constexpr std::size_t kNoBatch = std::numeric_limits<std::size_t>::max();
  auto evaluate = [&](std::span<const ga::Chromosome> population,
                      std::span<double> fitness) -> bool {
    const std::size_t n_batches = (population.size() + 63) / 64;
    std::atomic<std::size_t> best_batch{kNoBatch};
    struct BatchMatch {
      unsigned t = 0;
      unsigned slot = 0;
    };
    std::vector<BatchMatch> matches(n_batches);

    util::parallel_for_chunks(
        config.parallel, population.size(), 64,
        [&](std::size_t batch, std::size_t base, std::size_t end,
            unsigned lane) {
          const std::size_t count = end - base;

          if (!lanes[lane]) {
            Machines& m = lanes[lane].emplace(c_);
            if (fault.pin == fault::kOutputPin) {
              m.faulty.add_output_override(fault.node, fault.stuck_at, ~0ULL);
            } else {
              m.faulty.add_input_override(fault.node,
                                          static_cast<unsigned>(fault.pin),
                                          fault.stuck_at, ~0ULL);
            }
          }
          sim::SequenceSimulator& good = lanes[lane]->good;
          sim::SequenceSimulator& faulty = lanes[lane]->faulty;
          good.set_state(current_good_state);
          if (trans) faulty.set_override_activity(0);
          faulty.reset();

          // With 64 independent candidates nearly every gate changes every
          // frame, so each frame is one levelized sweep and a bare latch.
          std::vector<PackedV3> pi_words(num_pi);
          for (unsigned t = 0; t < config.sequence_length; ++t) {
            // A lower batch already matched: this batch cannot win, and on
            // success every fitness value is zeroed anyway.
            if (batch > best_batch.load(std::memory_order_acquire)) return;
            for (std::size_t i = 0; i < num_pi; ++i) {
              const std::size_t bit = t * num_pi + i;
              std::uint64_t ones = 0;
              for (std::size_t s = 0; s < count; ++s) {
                ones |= static_cast<std::uint64_t>(population[base + s][bit])
                        << s;
              }
              pi_words[i] = {ones, ~ones};
            }
            good.sweep_packed(pi_words);
            faulty.sweep_packed(pi_words);
            if (trans) {
              // Launch activity for frame t+1, read off the settled good
              // frame; the latch mask must be in place before the clock
              // edge, the current-frame mask after it.
              const PackedV3 lv = good.value(launch_line);
              const std::uint64_t next_act = fault.stuck_at ? lv.v1 : lv.v0;
              faulty.set_latch_override_activity(next_act);
              good.latch();
              faulty.latch();
              faulty.set_override_activity(next_act);
            } else {
              good.latch();
              faulty.latch();
            }

            const std::uint64_t match =
                good.state_match_mask(desired_good) &
                faulty.state_match_mask(desired_faulty);
            if (match != 0) {
              matches[batch] = {t, static_cast<unsigned>(
                                       __builtin_ctzll(match))};
              std::size_t cur = best_batch.load(std::memory_order_relaxed);
              while (batch < cur &&
                     !best_batch.compare_exchange_weak(
                         cur, batch, std::memory_order_release,
                         std::memory_order_relaxed)) {
              }
              return;
            }
          }

          for (std::size_t s = 0; s < count; ++s) {
            const double raw =
                config.good_weight *
                    good.state_match_count(desired_good,
                                           static_cast<unsigned>(s)) +
                config.faulty_weight *
                    faulty.state_match_count(desired_faulty,
                                             static_cast<unsigned>(s));
            fitness[base + s] = config.square_fitness ? raw * raw : raw;
          }
        });

    const std::size_t winner = best_batch.load(std::memory_order_acquire);
    if (winner != kNoBatch) {
      const BatchMatch m = matches[winner];
      result.success = true;
      result.sequence =
          decode(population[winner * 64 + m.slot], num_pi, m.t + 1);
      // Score what was evaluated so far so the engine bookkeeping stays
      // sane, then request termination.
      for (std::size_t s = 0; s < population.size(); ++s) {
        fitness[s] = 0.0;
      }
      return true;
    }
    return deadline.expired();
  };

  const ga::GaResult ga_result = ga::GaEngine(ga_config).run(evaluate);
  result.best_fitness = ga_result.best_fitness;
  result.evaluations = ga_result.evaluations;
  result.generations_run = ga_result.generations_run;
  if (!result.success && !ga_result.best.empty()) {
    // Failure: surface the best individual as a near-miss sequence so the
    // caller can seed later populations from it.
    result.sequence = decode(ga_result.best, num_pi, config.sequence_length);
  }
  return result;
}

}  // namespace gatpg::hybrid
