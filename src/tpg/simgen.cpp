#include "tpg/simgen.h"

#include <algorithm>
#include <array>

#include "ga/codec.h"
#include "serialize/archive.h"

namespace gatpg::tpg {

using sim::Sequence;

SimGenEngine::SimGenEngine(const netlist::Circuit& c,
                           const SimGenConfig& config)
    : c_(c), config_(config), rng_(config.seed) {}

std::size_t SimGenEngine::step(session::Session& s,
                               const util::Deadline& deadline) {
  const std::size_t npi = c_.primary_inputs().size();
  if (npi == 0) return 0;
  const auto sample = s.faults().sample_undropped(rng_, config_.fault_sample);
  if (sample.empty()) return 0;

  ga::GaConfig ga_config;
  ga_config.population_size = config_.population;
  ga_config.generations = config_.generations;
  ga_config.chromosome_bits = config_.sequence_length * npi;
  ga_config.seed = config_.seed ^ (0x51ed2701ULL * ++round_counter_);

  const auto evaluate = [&](std::span<const ga::Chromosome> population,
                            std::span<double> fitness) {
    for (std::size_t i = 0; i < population.size(); ++i) {
      const auto what = s.simulator().what_if(
          sample, ga::decode(population[i], npi, config_.sequence_length));
      fitness[i] = static_cast<double>(what.detected) +
                   config_.effect_weight * what.state_effects;
      s.note_evaluations(1);
    }
    return deadline.expired();
  };

  const ga::GaResult best = ga::GaEngine(ga_config).run(evaluate);
  if (best.best.empty()) return 0;
  const std::size_t newly =
      s.commit_test(ga::decode(best.best, npi, config_.sequence_length));
  s.faults().absorb_detections(s.simulator().detected());
  return newly;
}

void SimGenEngine::run(session::Session& s, const session::PassConfig&,
                       const util::Deadline& deadline) {
  // A resumed run keeps the checkpointed stagnation window; a fresh pass
  // entry starts a new one.
  if (!resuming_) stagnant_ = 0;
  resuming_ = false;
  while (stagnant_ < config_.stagnation_rounds && !deadline.expired() &&
         !s.stop_requested() &&
         s.faults().detected_count() < s.faults().size()) {
    const std::size_t newly = step(s, deadline);
    s.note_round();
    stagnant_ = newly == 0 ? stagnant_ + 1 : 0;
    s.checkpoint_tick();  // one committed GA round = one unit of work
  }
}

void SimGenEngine::save_state(serialize::Writer& w) const {
  for (const std::uint64_t word : rng_.state_words()) w.u64(word);
  w.u64(round_counter_);
  w.u32(stagnant_);
}

void SimGenEngine::load_state(serialize::Reader& r) {
  std::array<std::uint64_t, 4> words;
  for (std::uint64_t& word : words) word = r.u64();
  rng_.set_state_words(words);
  round_counter_ = r.u64();
  stagnant_ = r.u32();
  resuming_ = true;
}

namespace {
session::SessionConfig simgen_session_config(const SimGenConfig& config) {
  session::SessionConfig sc;
  sc.faultsim = config.faultsim;
  return sc;
}
}  // namespace

SimulationTestGenerator::SimulationTestGenerator(const netlist::Circuit& c,
                                                 SimGenConfig config)
    : config_(config),
      session_(c, simgen_session_config(config_)),
      engine_(c, config_) {}

std::size_t SimulationTestGenerator::apply(const Sequence& seq) {
  const std::size_t newly = session_.commit_test(seq);
  session_.faults().absorb_detections(session_.simulator().detected());
  return newly;
}

std::size_t SimulationTestGenerator::step(const util::Deadline& deadline) {
  return engine_.step(session_, deadline);
}

SimGenResult SimulationTestGenerator::run(
    session::ProgressObserver* observer) {
  session_.set_observer(observer);
  return session_.run(engine_,
                      session::PassSchedule::single(config_.time_limit_s));
}

}  // namespace gatpg::tpg
