#include "hybrid/hybrid_atpg.h"

#include <algorithm>
#include <array>
#include <optional>

#include "netlist/depth.h"
#include "serialize/archive.h"
#include "util/stopwatch.h"

namespace gatpg::hybrid {

using atpg::ForwardEngine;
using atpg::ForwardStatus;
using atpg::SearchLimits;
using session::FaultStatus;
using sim::Sequence;
using sim::State3;
using sim::V3;

HybridEngine::HybridEngine(const netlist::Circuit& c,
                           const HybridConfig& config, unsigned depth,
                           util::Rng& rng)
    : c_(c),
      config_(config),
      depth_(depth),
      rng_(rng),
      obs_dist_(atpg::share_observation_distances(c)),
      model_pool_(c) {}

unsigned HybridEngine::ga_sequence_length(
    const session::PassConfig& pass) const {
  if (pass.seq_len_override) return pass.seq_len_override;
  const double len = pass.seq_len_multiplier * std::max(1u, depth_);
  // Floor of 4: a structural depth of 1 (datapaths with direct load paths)
  // still needs a few vectors to steer counters/accumulators.
  return std::max(4u, static_cast<unsigned>(len));
}

void HybridEngine::fill_x(Sequence& seq, util::Rng& rng) {
  for (auto& vec : seq) {
    for (auto& v : vec) {
      if (v == V3::kX) v = rng.bit() ? V3::k1 : V3::k0;
    }
  }
}

TargetResult HybridEngine::solve_target(const fault::Fault& f,
                                        std::size_t fault_index,
                                        const session::PassConfig& pass,
                                        TargetFacilities& fx) const {
  ++fx.counters->targeted;

  SearchLimits limits;
  limits.time_limit_s = pass.time_limit_s;
  limits.max_backtracks = pass.max_backtracks;
  limits.max_forward_frames =
      config_.max_forward_frames
          ? config_.max_forward_frames
          : std::clamp(2 * std::max(1u, depth_), 6u, 24u);
  limits.max_justify_depth =
      config_.max_justify_depth
          ? config_.max_justify_depth
          : std::clamp(4 * std::max(1u, depth_), 8u, 64u);

  // Pool demand of this target: every model it acquires is released by its
  // end, so its peak is what a serial pool must hold at once.
  fx.pool->begin_peak_window();
  const std::uint64_t acquires_before = fx.pool->acquires();

  ForwardEngine forward(c_, f, limits, obs_dist_, fx.pool);
  const GaStateJustifier ga_justifier(c_);
  atpg::DeterministicJustifier det_justifier(c_, limits, fx.store, fx.pool);
  // DeterministicJustifier resets its stats per justify() call; accumulate
  // them here across the attempt loop.
  atpg::SearchStats det_total;

  TargetResult result;
  result.outcome = attempt_solutions(f, fault_index, pass, fx, forward,
                                     ga_justifier, det_justifier, det_total,
                                     result.candidate);

  // Deterministic-engine effort accounting (per fault and cumulative).
  const atpg::SearchStats& fs = forward.stats();
  result.effort.fault_index = fault_index;
  result.effort.model = f.model;
  result.effort.decisions = fs.decisions + det_total.decisions;
  result.effort.backtracks = fs.backtracks + det_total.backtracks;
  result.effort.gate_evals = fs.gate_evals + det_total.gate_evals;
  result.effort.events = fs.events + det_total.events;
  fx.counters->det_decisions += result.effort.decisions;
  fx.counters->det_backtracks += result.effort.backtracks;
  fx.counters->det_gate_evals += result.effort.gate_evals;
  fx.counters->det_events += result.effort.events;
  fx.counters->det_model_acquires +=
      static_cast<long>(fx.pool->acquires() - acquires_before);
  result.pool_peak = fx.pool->peak_outstanding();
  return result;
}

TargetOutcome HybridEngine::target_fault(session::Session& s,
                                         std::size_t fault_index,
                                         const session::PassConfig& pass) {
  const auto deadline = util::Deadline::after_seconds(pass.time_limit_s);

  TargetFacilities fx;
  fx.rng = &rng_;
  fx.counters = &s.counters();
  fx.store = &s.state_store();
  fx.pool = &model_pool_;
  fx.good_machine = &s.simulator().good_machine();
  fx.good_state = s.simulator().good_state();
  fx.faulty_state = s.simulator().fault_state(fault_index);
  fx.launch_prev = s.simulator().launch_prev(fault_index);
  fx.deadline = &deadline;
  fx.ga_parallel = config_.parallel;

  TargetResult result =
      solve_target(s.faults().fault(fault_index), fault_index, pass, fx);
  return commit_target(s, result);
}

TargetOutcome HybridEngine::commit_target(session::Session& s,
                                          TargetResult& result) {
  if (result.outcome.detected) s.commit_test(std::move(result.candidate));
  // A serial pool builds a model only when a target holds more at once than
  // any target before it, so its construction count is the running max.
  long& builds = s.counters().det_model_builds;
  builds = std::max(builds, static_cast<long>(result.pool_peak));
  if (s.observer()) s.observer()->on_target_end(s, result.effort);
  return result.outcome;
}

TargetOutcome HybridEngine::attempt_solutions(
    const fault::Fault& f, std::size_t fault_index,
    const session::PassConfig& pass, TargetFacilities& fx,
    ForwardEngine& forward, const GaStateJustifier& ga_justifier,
    atpg::DeterministicJustifier& det_justifier, atpg::SearchStats& det_total,
    Sequence& candidate_out) const {
  TargetOutcome outcome;
  const util::Deadline& deadline = *fx.deadline;
  state::StateStore& store = *fx.store;

  // True while every justification failure so far was a completed proof of
  // unjustifiability; together with forward exhaustion this upgrades
  // "exhausted" to "untestable".
  bool all_rejections_proven = true;
  // Attempt 0 was served from the forward-solution cache: the engine will
  // re-derive that same solution first, so skip its duplicate.
  bool forward_resync = false;

  for (unsigned attempt = 0; attempt < config_.max_solutions_per_fault;
       ++attempt) {
    State3 required;
    Sequence vectors;
    bool from_cache = false;
    if (attempt == 0) {
      // Satellite: the target's first excitation/propagation solution (and
      // its desired state) is computed once and reused across the per-pass
      // retry loop — the excitation state of a fault does not change
      // between passes, only the justification budget does.
      if (const auto* cached = store.take_cached_forward(fault_index)) {
        required = cached->required;
        vectors = cached->vectors;
        from_cache = true;
        forward_resync = true;
      }
    }
    if (!from_cache) {
      ForwardStatus status = forward.next_solution(deadline);
      if (forward_resync && status == ForwardStatus::kSolved) {
        const auto* cached = store.cached_forward(fault_index);
        if (cached && forward.required_state() == cached->required &&
            forward.vectors() == cached->vectors) {
          status = forward.next_solution(deadline);
        }
        forward_resync = false;
      }
      if (status == ForwardStatus::kUntestable) {
        outcome.untestable = true;
        return outcome;
      }
      if (status == ForwardStatus::kAborted) {
        outcome.aborted = true;
        return outcome;
      }
      if (status == ForwardStatus::kExhausted) {
        // Every excitation/propagation option was enumerated; if
        // additionally every required state was *proven* unjustifiable
        // (deterministic justification or a stored proof — GA failures
        // prove nothing), the fault is untestable.
        outcome.untestable = !forward.stats().clipped && all_rejections_proven;
        if (!outcome.untestable) outcome.aborted = true;
        return outcome;
      }
      // kSolved.
      required = forward.required_state();
      vectors = forward.vectors();
      if (!store.cached_forward(fault_index)) {
        store.cache_forward(fault_index, vectors, required);
      }
    }
    ++fx.counters->forward_solutions;

    const bool state_needed =
        std::any_of(required.begin(), required.end(),
                    [](V3 v) { return v != V3::kX; });

    Sequence justification;
    bool justified = false;
    if (!state_needed) {
      ++fx.counters->no_justification_needed;
      justified = true;
    } else if (pass.mode == session::JustifyMode::kGenetic) {
      // GA justification from the current good-circuit state; the faulty
      // machine starts all-X, as §IV-A prescribes.  Check first whether the
      // current state already matches (every defined literal of the required
      // cube holds in the current state).
      const State3& current = fx.good_state;
      if (sim::cube_subsumes(required, current)) {
        // Good machine already there; the faulty all-X state matches only
        // X requirements, which is exactly what state_needed covers for
        // the faulty target — still attempt without extra vectors.
        justified = true;
        ++fx.counters->no_justification_needed;
      } else {
        // A stored proof: the rejection counts toward untestability exactly
        // like a completed deterministic exhaustion, so
        // all_rejections_proven stays true.
        const bool proven_impossible = store.known_unjustifiable(required);
        std::optional<Sequence> cached;
        if (!proven_impossible) {
          cached = store.lookup_justified(f, required, required, current);
        }
        if (cached) {
          justification = std::move(*cached);
          justified = true;
        } else if (!proven_impossible) {
          ++fx.counters->ga_invocations;
          GaJustifyConfig ga_config;
          ga_config.population = pass.ga_population;
          ga_config.generations = pass.ga_generations;
          ga_config.sequence_length = ga_sequence_length(pass);
          ga_config.good_weight = config_.ga_good_weight;
          ga_config.faulty_weight = config_.ga_faulty_weight;
          ga_config.square_fitness = config_.ga_square_fitness;
          ga_config.selection = config_.selection;
          ga_config.parallel = fx.ga_parallel;
          ga_config.seed = config_.seed ^ (0x9e3779b9ULL * (fault_index + 1)) ^
                           (attempt << 20);
          const std::size_t max_seeds = static_cast<std::size_t>(
              store.config().ga_seed_fraction * pass.ga_population);
          ga_config.seeds = store.seed_sequences(required, max_seeds);
          const GaJustifyResult ga = ga_justifier.justify(
              f, required, required, current, ga_config, deadline);
          if (ga.success) {
            ++fx.counters->ga_successes;
            store.record_justified(required, ga.sequence);
            justification = ga.sequence;
            justified = true;
          } else if (!ga.sequence.empty()) {
            // Satellite: the best individual's sequence is a near miss for
            // this cube; a later (bigger) GA pass hunting it resumes here.
            store.record_near_miss(required, ga.sequence);
          }
          all_rejections_proven = false;  // GA failure proves nothing
        }
      }
    } else {
      std::optional<Sequence> cached =
          store.lookup_justified(f, required, required, fx.good_state);
      if (cached) {
        justification = std::move(*cached);
        justified = true;
      } else {
        ++fx.counters->det_justify_calls;
        const auto det = det_justifier.justify(required, deadline);
        const atpg::SearchStats& ds = det_justifier.stats();
        det_total.decisions += ds.decisions;
        det_total.backtracks += ds.backtracks;
        det_total.gate_evals += ds.gate_evals;
        det_total.events += ds.events;
        if (det.status == atpg::DeterministicJustifier::Status::kJustified) {
          ++fx.counters->det_justify_successes;
          store.record_justified(required, det.sequence);
          justification = det.sequence;
          justified = true;
        } else if (det.status ==
                   atpg::DeterministicJustifier::Status::kAborted) {
          all_rejections_proven = false;
          outcome.aborted = true;
          return outcome;
        }
        // kUnjustifiable: completed proof; try the next forward solution.
      }
    }

    if (!justified) {
      if (deadline.expired()) {
        outcome.aborted = true;
        return outcome;
      }
      continue;  // Fig. 1: backtrack in the propagation phase
    }

    Sequence candidate = justification;
    candidate.insert(candidate.end(), vectors.begin(), vectors.end());
    fill_x(candidate, *fx.rng);

    if (!fault::FaultSimulator::would_detect_from(c_, *fx.good_machine,
                                                  fx.faulty_state, f, candidate,
                                                  fx.launch_prev)) {
      ++fx.counters->verify_failures;
      all_rejections_proven = false;
      if (deadline.expired()) {
        outcome.aborted = true;
        return outcome;
      }
      continue;
    }

    // Verified: hand the candidate up for commit (the serial wrapper or the
    // speculative committer extends the session test set in fault order).
    candidate_out = std::move(candidate);
    ++fx.counters->committed_tests;
    outcome.detected = true;
    return outcome;
  }

  outcome.aborted = true;  // alternative-solution budget exhausted
  return outcome;
}

void HybridEngine::resolve_target(session::Session& s, std::size_t fault_index,
                                  const TargetOutcome& outcome) {
  if (outcome.detected) {
    s.faults().mark_detected(fault_index);
  } else if (outcome.untestable) {
    s.faults().mark_untestable(fault_index);
  } else if (outcome.aborted) {
    s.faults().mark_aborted(fault_index);
    ++s.counters().aborted_faults;
  }
  // Pick up incidental detections recorded by the fault simulator.
  s.faults().absorb_detections(s.simulator().detected());
}

void HybridEngine::step(session::Session& s) {
  session::FaultManager& fm = s.faults();
  const std::size_t target = fm.next_undetected(next_target_);
  if (target == fm.size()) return;
  next_target_ = target + 1;
  if (s.simulator().detected()[target]) {
    fm.mark_detected(target);
    return;
  }
  // Stepwise targeting uses the schedule's final (hardest-limits) pass.
  const session::PassConfig pass = config_.schedule.passes.empty()
                              ? session::PassConfig{}
                              : config_.schedule.passes.back();
  resolve_target(s, target, target_fault(s, target, pass));
}

void HybridEngine::save_state(serialize::Writer& w) const {
  for (const std::uint64_t word : rng_.state_words()) w.u64(word);
  w.u64(next_target_);
}

void HybridEngine::load_state(serialize::Reader& r) {
  std::array<std::uint64_t, 4> words;
  for (std::uint64_t& word : words) word = r.u64();
  rng_.set_state_words(words);
  next_target_ = r.u64();
}

HybridAtpg::HybridAtpg(const netlist::Circuit& c, HybridConfig config)
    : c_(c),
      config_(std::move(config)),
      faults_(fault::collapse(c, config_.fault_model)),
      depth_(netlist::sequential_depth(c)),
      rng_(config_.seed) {}

session::SessionConfig HybridConfig::session_config() const {
  session::SessionConfig s;
  s.fault_model = fault_model;
  s.faultsim = faultsim;
  s.faultsim.parallel = parallel;
  s.state_store = state_store;
  s.target_parallel = target_parallel;
  return s;
}

session::SessionResult HybridAtpg::run(session::ProgressObserver* observer) {
  session::Session s(c_, faults_, config_.session_config());
  s.set_observer(observer);
  HybridEngine engine(c_, config_, depth_, rng_);
  return s.run(engine, config_.schedule);
}

}  // namespace gatpg::hybrid
