#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "fault/faultsim.h"

namespace gabench {

using namespace gatpg;
using atpg::ForwardStatus;
using session::FaultStatus;
using session::JustifyMode;
using sim::Sequence;
using sim::State3;
using sim::V3;

int Tracer::open(const char* name, long fault) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.fault = fault;
  if (fault < 0 && s.parent >= 0) s.fault = spans_[s.parent].fault;
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  spans_.push_back(s);
  // Stamp last, so the bookkeeping above is not charged to the span.
  spans_[index].start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           origin_)
          .count();
  return index;
}

void Tracer::close(int index) {
  spans_[index].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           origin_)
          .count();
  // Spans close strictly innermost-first (RAII scopes and paired hooks).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"fault\":%ld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.fault);
  }
  return std::fclose(f) == 0;
}

void PassSpans::on_pass_begin(const session::Session&, std::size_t,
                              const session::PassConfig&) {
  open_ = tracer_.open("session.pass");
}

void PassSpans::on_pass_end(const session::Session&, std::size_t,
                            const session::PassOutcome&) {
  if (open_ >= 0) tracer_.close(open_);
  open_ = -1;
}

TracedEngine::TracedEngine(const netlist::Circuit& c,
                           const hybrid::HybridConfig& config, unsigned depth,
                           Tracer& tracer)
    : c_(c),
      config_(config),
      depth_(depth),
      tracer_(tracer),
      rng_(config.seed),
      obs_dist_(atpg::share_observation_distances(c)),
      pool_(c) {}

unsigned TracedEngine::ga_sequence_length(
    const session::PassConfig& pass) const {
  if (pass.seq_len_override) return pass.seq_len_override;
  const double len = pass.seq_len_multiplier * std::max(1u, depth_);
  return std::max(4u, static_cast<unsigned>(len));
}

void TracedEngine::run(session::Session& s, const session::PassConfig& pass,
                       const util::Deadline& pass_deadline) {
  session::FaultManager& fm = s.faults();
  for (std::size_t i = fm.pass_cursor(); i < fm.size(); ++i) {
    if (pass_deadline.expired() || s.stop_requested()) break;
    if (fm.status(i) != FaultStatus::kUndetected) {
      fm.set_pass_cursor(i + 1);
      continue;
    }
    if (s.simulator().detected()[i]) {
      fm.mark_detected(i);
      fm.set_pass_cursor(i + 1);
      continue;
    }
    const Outcome outcome = target(s, i, pass);
    if (outcome.detected) {
      fm.mark_detected(i);
    } else if (outcome.untestable) {
      fm.mark_untestable(i);
    } else if (outcome.aborted) {
      fm.mark_aborted(i);
    }
    fm.absorb_detections(s.simulator().detected());
    fm.set_pass_cursor(i + 1);
    s.checkpoint_tick();
  }
}

TracedEngine::Outcome TracedEngine::target(session::Session& s,
                                           std::size_t fault_index,
                                           const session::PassConfig& pass) {
  const Tracer::Scope span(tracer_, "session.target",
                           static_cast<long>(fault_index));
  const auto deadline = util::Deadline::after_seconds(pass.time_limit_s);

  atpg::SearchLimits limits;
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

  const fault::Fault& f = s.faults().fault(fault_index);
  atpg::ForwardEngine forward(c_, f, limits, obs_dist_, &pool_);
  state::StateStore& store = s.state_store();
  atpg::DeterministicJustifier det(c_, limits,
                                   store.enabled() ? &store : nullptr, &pool_);

  Sequence candidate;
  const Outcome outcome = attempt(
      s, fault_index, pass, deadline, forward, det,
      s.simulator().good_state(), s.simulator().fault_state(fault_index),
      s.simulator().launch_prev(fault_index), candidate);

  if (outcome.detected) {
    const Tracer::Scope commit(tracer_, "session.commit");
    s.commit_test(std::move(candidate));
  }
  return outcome;
}

TracedEngine::Outcome TracedEngine::attempt(
    session::Session& s, std::size_t fault_index,
    const session::PassConfig& pass, const util::Deadline& deadline,
    atpg::ForwardEngine& forward, atpg::DeterministicJustifier& det,
    const State3& good_state, const State3& faulty_state, V3 launch_prev,
    Sequence& candidate_out) {
  Outcome outcome;
  state::StateStore& store = s.state_store();
  const bool use_store = store.enabled();
  const fault::Fault& f = s.faults().fault(fault_index);
  bool all_rejections_proven = true;
  bool forward_resync = false;

  for (unsigned attempt = 0; attempt < config_.max_solutions_per_fault;
       ++attempt) {
    State3 required;
    Sequence vectors;
    bool from_cache = false;
    if (use_store && attempt == 0) {
      const Tracer::Scope span(tracer_, "state");
      if (const auto* cached = store.take_cached_forward(fault_index)) {
        required = cached->required;
        vectors = cached->vectors;
        from_cache = true;
        forward_resync = true;
      }
    }
    if (!from_cache) {
      ForwardStatus status;
      {
        const Tracer::Scope span(tracer_, "atpg.forward");
        ++counts_.forward_calls;
        status = forward.next_solution(deadline);
        if (forward_resync && status == ForwardStatus::kSolved) {
          const auto* cached = store.cached_forward(fault_index);
          if (cached && forward.required_state() == cached->required &&
              forward.vectors() == cached->vectors) {
            ++counts_.forward_calls;
            status = forward.next_solution(deadline);
          }
          forward_resync = false;
        }
        if (status == ForwardStatus::kSolved) {
          required = forward.required_state();
          vectors = forward.vectors();
        }
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
        outcome.untestable = !forward.stats().clipped && all_rejections_proven;
        if (!outcome.untestable) outcome.aborted = true;
        return outcome;
      }
      if (use_store) {
        const Tracer::Scope span(tracer_, "state");
        if (!store.cached_forward(fault_index)) {
          store.cache_forward(fault_index, vectors, required);
        }
      }
    }

    const bool state_needed = std::any_of(
        required.begin(), required.end(), [](V3 v) { return v != V3::kX; });

    Sequence justification;
    bool justified = false;
    if (!state_needed) {
      justified = true;
    } else if (pass.mode == JustifyMode::kGenetic) {
      if (sim::cube_subsumes(required, good_state)) {
        justified = true;
      } else {
        bool proven_impossible = false;
        std::optional<Sequence> cached;
        if (use_store) {
          const Tracer::Scope span(tracer_, "state");
          if (store.known_unjustifiable(required)) {
            proven_impossible = true;
          } else {
            cached = store.lookup_justified(f, required, required, good_state);
          }
        }
        if (cached) {
          justification = std::move(*cached);
          justified = true;
        } else if (!proven_impossible) {
          hybrid::GaJustifyConfig ga_config;
          ga_config.population = pass.ga_population;
          ga_config.generations = pass.ga_generations;
          ga_config.sequence_length = ga_sequence_length(pass);
          ga_config.good_weight = config_.ga_good_weight;
          ga_config.faulty_weight = config_.ga_faulty_weight;
          ga_config.square_fitness = config_.ga_square_fitness;
          ga_config.selection = config_.selection;
          ga_config.parallel = config_.parallel;
          ga_config.seed = config_.seed ^
                           (0x9e3779b9ULL * (fault_index + 1)) ^
                           (static_cast<std::uint64_t>(attempt) << 20);
          if (use_store) {
            const Tracer::Scope span(tracer_, "state");
            const std::size_t max_seeds = static_cast<std::size_t>(
                store.config().ga_seed_fraction * pass.ga_population);
            ga_config.seeds = store.seed_sequences(required, max_seeds);
          }
          hybrid::GaJustifyResult ga;
          {
            const Tracer::Scope span(tracer_, "hybrid.ga_justify");
            ga = hybrid::GaStateJustifier(c_).justify(
                f, required, required, good_state, ga_config, deadline);
          }
          counts_.ga_evaluations += static_cast<long>(ga.evaluations);
          if (ga.success) {
            if (use_store) {
              const Tracer::Scope span(tracer_, "state");
              store.record_justified(required, ga.sequence);
            }
            justification = ga.sequence;
            justified = true;
          } else if (use_store && !ga.sequence.empty()) {
            const Tracer::Scope span(tracer_, "state");
            store.record_near_miss(required, ga.sequence);
          }
          all_rejections_proven = false;
        }
      }
    } else {
      std::optional<Sequence> cached;
      if (use_store) {
        const Tracer::Scope span(tracer_, "state");
        cached = store.lookup_justified(f, required, required, good_state);
      }
      if (cached) {
        justification = std::move(*cached);
        justified = true;
      } else {
        atpg::DeterministicJustifier::Outcome result;
        {
          const Tracer::Scope span(tracer_, "atpg.justify");
          result = det.justify(required, deadline);
        }
        if (result.status ==
            atpg::DeterministicJustifier::Status::kJustified) {
          if (use_store) {
            const Tracer::Scope span(tracer_, "state");
            store.record_justified(required, result.sequence);
          }
          justification = result.sequence;
          justified = true;
        } else if (result.status ==
                   atpg::DeterministicJustifier::Status::kAborted) {
          outcome.aborted = true;
          return outcome;
        }
      }
    }

    if (!justified) {
      if (deadline.expired()) {
        outcome.aborted = true;
        return outcome;
      }
      continue;
    }

    Sequence candidate = justification;
    candidate.insert(candidate.end(), vectors.begin(), vectors.end());
    for (auto& vec : candidate) {
      for (auto& v : vec) {
        if (v == V3::kX) v = rng_.bit() ? V3::k1 : V3::k0;
      }
    }

    bool detects;
    {
      const Tracer::Scope span(tracer_, "fault.verify");
      ++counts_.verify_calls;
      detects = fault::FaultSimulator::would_detect_from(
          c_, s.simulator().good_machine(), faulty_state, f, candidate,
          launch_prev);
    }
    if (!detects) {
      all_rejections_proven = false;
      if (deadline.expired()) {
        outcome.aborted = true;
        return outcome;
      }
      continue;
    }
    candidate_out = std::move(candidate);
    outcome.detected = true;
    return outcome;
  }

  outcome.aborted = true;
  return outcome;
}

}  // namespace gabench
