#include "tpg/alternating.h"

#include "netlist/depth.h"
#include "serialize/archive.h"

namespace gatpg::tpg {

namespace {
SimGenConfig make_sim_config(const AlternatingConfig& config) {
  SimGenConfig sim_config;
  sim_config.population = config.population;
  sim_config.generations = config.generations;
  sim_config.sequence_length = config.sequence_length;
  sim_config.fault_sample = config.fault_sample;
  sim_config.seed = config.seed;
  return sim_config;
}

/// The deterministic phase's engine config: one deterministic pass at the
/// `det_limits` time and backtrack caps, at most 8 forward solutions per
/// target, state store off.
hybrid::HybridConfig make_det_config(const AlternatingConfig& config) {
  session::PassConfig pass;
  pass.mode = session::JustifyMode::kDeterministic;
  pass.time_limit_s = config.det_limits.time_limit_s;
  pass.max_backtracks = config.det_limits.max_backtracks;
  hybrid::HybridConfig det_config;
  det_config.schedule.passes = {pass};
  det_config.max_forward_frames = config.det_limits.max_forward_frames;
  det_config.max_justify_depth = config.det_limits.max_justify_depth;
  det_config.max_solutions_per_fault = 8;
  return det_config;
}
}  // namespace

AlternatingEngine::AlternatingEngine(const netlist::Circuit& c,
                                     const AlternatingConfig& config)
    : config_(config),
      sim_config_(make_sim_config(config)),
      det_config_(make_det_config(config)),
      rng_(config.seed ^ 0xfeedULL),
      simgen_(c, sim_config_),
      det_(c, det_config_, netlist::sequential_depth(c), rng_) {}

void AlternatingEngine::run(session::Session& s, const session::PassConfig&,
                            const util::Deadline& deadline) {
  session::FaultManager& fm = s.faults();
  // A resumed run keeps the checkpointed phase counters; a fresh entry
  // starts from a clean alternation.
  if (!resuming_) {
    barren_rounds_ = 0;
    det_failures_ = 0;
  }
  resuming_ = false;

  while (!deadline.expired() && !s.stop_requested() &&
         det_failures_ < config_.det_failures_to_stop && !fm.all_resolved()) {
    // --- Simulation phase -------------------------------------------------
    while (barren_rounds_ < config_.switch_after && !deadline.expired() &&
           !s.stop_requested() && fm.detected_count() < fm.size()) {
      const std::size_t newly = simgen_.step(s, deadline);
      s.note_round();
      barren_rounds_ = newly == 0 ? barren_rounds_ + 1 : 0;
      s.checkpoint_tick();  // one committed GA round = one unit of work
    }
    if (deadline.expired() || s.stop_requested() || fm.all_resolved()) break;
    barren_rounds_ = 0;

    // --- Deterministic phase: one targeted fault --------------------------
    // The target is resolved if it (or anything else) left the undetected
    // set: detected, incidentally detected, or proven untestable.
    const std::size_t unresolved = fm.undetected_count();
    det_.step(s);
    det_failures_ = fm.undetected_count() < unresolved ? 0 : det_failures_ + 1;
    s.checkpoint_tick();  // one targeted fault = one unit of work
  }
}

void AlternatingEngine::save_state(serialize::Writer& w) const {
  w.u32(barren_rounds_);
  w.u32(det_failures_);
  simgen_.save_state(w);
  det_.save_state(w);  // covers the shared rng_ (held by reference)
}

void AlternatingEngine::load_state(serialize::Reader& r) {
  barren_rounds_ = r.u32();
  det_failures_ = r.u32();
  simgen_.load_state(r);
  det_.load_state(r);
  resuming_ = true;
}

AlternatingResult alternating_hybrid_generate(
    const netlist::Circuit& c, const AlternatingConfig& config,
    session::ProgressObserver* observer) {
  session::SessionConfig session_config;
  session_config.faultsim = config.faultsim;
  session::Session s(c, session_config);
  s.set_observer(observer);
  AlternatingEngine engine(c, config);
  return s.run(engine, session::PassSchedule::single(config.time_limit_s));
}

}  // namespace gatpg::tpg
