#include "hybrid/ga_justify.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "fault/inject.h"
#include "ga/codec.h"
#include "netlist/fanin_walk.h"

namespace gatpg::hybrid {

using netlist::NodeId;
using sim::PackedV3;
using sim::Sequence;
using sim::State3;
using sim::V3;

namespace {

/// The part of the circuit the GA's results depend on: the sequential
/// fan-in of the required flip-flops R by depth.  Depth 0 is the
/// combinational fan-in of R's D inputs; a flip-flop read by the depth-d
/// cone joins at depth d + 1, and its D input's fan-in with it.  Frame t of
/// L runs depth min(L - 1 - t, max_depth()): R then latches correctly in
/// every frame (the early exit reads it after each one), and whatever the
/// depth-d cone reads was latched one frame earlier at depth d + 1 or more.
/// Each depth's lists are prefixes of one walk, since depth d + 1 only adds
/// to depth d; the gate list is netlist::walk_fanin's post-order, an
/// evaluation order.  Built in O(cone) on top of one node-sized mark array.
///
/// A transition fault's launch line needs no cone of its own.  Its good
/// value in frame t only gates the fault's overrides in frame t + 1, which
/// matter only if the fault site is in frame t + 1's cone.  The launch
/// line is the site or a fanin of it, so it is then in frame t + 1's cone
/// too (or a flip-flop that cone reads), and frame t's cone contains that.
class GoalCone {
 public:
  GoalCone(const netlist::Circuit& c,
           std::span<const std::uint32_t> required) {
    std::vector<char> seen(c.node_count(), 0);
    netlist::FaninStack stack;
    const auto walk = [&](NodeId root) {
      netlist::walk_fanin(
          c, root, stack, [&](NodeId n) { return !std::exchange(seen[n], 1); },
          [&](NodeId n) {
            if (netlist::is_combinational(c.type(n))) {
              gates_.push_back(n);
            } else if (c.ff_index(n) >= 0) {
              ffs_.push_back(static_cast<std::uint32_t>(c.ff_index(n)));
            }
          });
    };
    for (const std::uint32_t i : required) walk(c.flip_flops()[i]);
    std::size_t begin = 0;
    while (true) {
      const std::size_t end = ffs_.size();
      ff_end_.push_back(end);
      for (std::size_t i = begin; i < end; ++i) {
        walk(c.fanins(c.flip_flops()[ffs_[i]])[0]);
      }
      gate_end_.push_back(gates_.size());
      if (ffs_.size() == end) break;  // no new flip-flop is read
      begin = end;
    }
  }

  unsigned max_depth() const {
    return static_cast<unsigned>(gate_end_.size() - 1);
  }
  std::span<const NodeId> gates(unsigned depth) const {
    return {gates_.data(), gate_end_[depth]};
  }
  std::span<const std::uint32_t> flip_flops(unsigned depth) const {
    return {ffs_.data(), ff_end_[depth]};
  }

 private:
  std::vector<NodeId> gates_;
  std::vector<std::uint32_t> ffs_;
  std::vector<std::size_t> gate_end_;  // [depth]
  std::vector<std::size_t> ff_end_;    // [depth]
};

/// A required flip-flop literal: the slots whose value matches it are
/// `one ? v1 : v0` of its packed value.
struct Literal {
  NodeId ff;
  bool one;
};

std::vector<Literal> literals_of(const netlist::Circuit& c,
                                 const State3& desired) {
  std::vector<Literal> lits;
  for (std::size_t i = 0; i < desired.size(); ++i) {
    if (desired[i] != V3::kX) {
      lits.push_back({c.flip_flops()[i], desired[i] == V3::k1});
    }
  }
  return lits;
}

/// Adds each slot's number of matching literals to `hits`.
void count_matches(const sim::SequenceSimulator& m,
                   std::span<const Literal> lits, std::size_t count,
                   unsigned* hits) {
  for (const Literal lit : lits) {
    const PackedV3 v = m.value(lit.ff);
    const std::uint64_t w = lit.one ? v.v1 : v.v0;
    for (std::size_t s = 0; s < count; ++s) {
      hits[s] += static_cast<unsigned>((w >> s) & 1);
    }
  }
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
  // good machine (fault/inject.h).  Each batch starts from power-up, whose
  // frame cannot launch.
  const NodeId launch = fault::launch_line(c_, fault);

  // Only the required flip-flops R are scored, so each frame runs only
  // what R still depends on (see GoalCone).  Both machines run the same
  // cone even when the fault lies outside it: the faulty machine starts
  // all-X and the good one from current_good_state, so they differ anyway.
  const std::vector<Literal> good_lits = literals_of(c_, desired_good);
  const std::vector<Literal> faulty_lits = literals_of(c_, desired_faulty);
  std::vector<std::uint32_t> required;
  for (std::size_t i = 0; i < desired_good.size(); ++i) {
    if (desired_good[i] != V3::kX || desired_faulty[i] != V3::kX) {
      required.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const GoalCone cone(c_, required);
  // Each flip-flop outside a machine's literals matches in every slot.
  const std::size_t num_ff = c_.flip_flops().size();
  const auto good_free = static_cast<unsigned>(num_ff - good_lits.size());
  const auto faulty_free = static_cast<unsigned>(num_ff - faulty_lits.size());

  ga::GaConfig ga_config;
  ga_config.population_size = config.population;
  ga_config.generations = config.generations;
  ga_config.chromosome_bits = config.sequence_length * num_pi;
  ga_config.selection = config.selection;
  ga_config.seed = config.seed;
  ga_config.seeds.reserve(config.seeds.size());
  for (const Sequence& seed_seq : config.seeds) {
    ga_config.seeds.push_back(
        ga::encode(seed_seq, num_pi, config.sequence_length));
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
    explicit Machines(const netlist::Circuit& c)
        : good(c), faulty(c), pi_words(c.primary_inputs().size()) {}
    sim::SequenceSimulator good;
    sim::SequenceSimulator faulty;
    std::vector<PackedV3> pi_words;
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
            fault::inject(lanes[lane].emplace(c_).faulty, fault);
          }
          sim::SequenceSimulator& good = lanes[lane]->good;
          sim::SequenceSimulator& faulty = lanes[lane]->faulty;
          std::vector<PackedV3>& pi_words = lanes[lane]->pi_words;
          good.set_state(current_good_state);
          fault::begin_launch(faulty, fault);
          faulty.reset();
          const auto batch_chromosomes = population.subspan(base, count);

          // With 64 independent candidates nearly every gate changes every
          // frame, so each frame is one sweep of the cone and a bare latch.
          const unsigned length = config.sequence_length;
          for (unsigned t = 0; t < length; ++t) {
            // A lower batch already matched: this batch cannot win, and on
            // success every fitness value is zeroed anyway.
            if (batch > best_batch.load(std::memory_order_acquire)) return;
            ga::pack_frame(batch_chromosomes, num_pi, t, pi_words);
            const unsigned depth = std::min(length - 1 - t, cone.max_depth());
            const auto gates = cone.gates(depth);
            const auto ffs = cone.flip_flops(depth);
            good.sweep_packed(pi_words, gates);
            faulty.sweep_packed(pi_words, gates);
            fault::end_frame(
                good, faulty, fault, launch,
                [ffs](sim::SequenceSimulator& m) { m.latch(ffs); });

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

          unsigned good_hits[64];
          unsigned faulty_hits[64];
          std::fill_n(good_hits, count, good_free);
          std::fill_n(faulty_hits, count, faulty_free);
          count_matches(good, good_lits, count, good_hits);
          count_matches(faulty, faulty_lits, count, faulty_hits);
          for (std::size_t s = 0; s < count; ++s) {
            const double raw = config.good_weight * good_hits[s] +
                               config.faulty_weight * faulty_hits[s];
            fitness[base + s] = config.square_fitness ? raw * raw : raw;
          }
        });

    const std::size_t winner = best_batch.load(std::memory_order_acquire);
    if (winner != kNoBatch) {
      const BatchMatch m = matches[winner];
      result.success = true;
      result.sequence =
          ga::decode(population[winner * 64 + m.slot], num_pi, m.t + 1);
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
    result.sequence =
        ga::decode(ga_result.best, num_pi, config.sequence_length);
  }
  return result;
}

}  // namespace gatpg::hybrid
