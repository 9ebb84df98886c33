// In-memory span recorder and the traced replay engine of the end-to-end
// benchmark.
//
// The traced engine is HybridEngine's serial Fig. 1 loop rebuilt from the
// library's public entry points, with a span recorded around every call into
// a layer: atpg::ForwardEngine::next_solution, GaStateJustifier::justify,
// atpg::DeterministicJustifier::justify, the StateStore lookups and records,
// FaultSimulator::would_detect_from, and Session::commit_test.  Session::run
// drives it exactly like the real engine, so a traced run must reach the
// same SessionResult::digests as the untraced HybridEngine run — that
// identity is what lets the traced layer split describe the measured run.
//
// This is scaffolding: once the library records its own per-layer spans,
// delete this file and read the profile from the session instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "atpg/detengine.h"
#include "hybrid/hybrid_atpg.h"
#include "session/observer.h"
#include "session/session.h"
#include "util/rng.h"

namespace gabench {

/// One closed span: times are nanoseconds since the tracer's origin;
/// `parent` indexes the enclosing span (-1 for a root); `fault` is the
/// targeted fault index (-1 outside a target).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  long fault = -1;
};

class Tracer {
 public:
  using clock = std::chrono::steady_clock;

  Tracer() : origin_(clock::now()) {}

  /// Opens a span under the innermost open span and returns its index.
  int open(const char* name, long fault = -1);
  void close(int index);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, long fault = -1)
        : tracer_(t), index_(t.open(name, fault)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a pass span on on_pass_begin and closes it on on_pass_end, so every
/// target span nests under its pass.
class PassSpans : public gatpg::session::ProgressObserver {
 public:
  explicit PassSpans(Tracer& t) : tracer_(t) {}
  void on_pass_begin(const gatpg::session::Session&, std::size_t,
                     const gatpg::session::PassConfig&) override;
  void on_pass_end(const gatpg::session::Session&, std::size_t,
                   const gatpg::session::PassOutcome&) override;

 private:
  Tracer& tracer_;
  int open_ = -1;
};

/// The calls the traced engine counts at its span boundaries that
/// session::EngineCounters does not count; every other work count comes
/// from the untraced run's counters.
struct TraceCounts {
  long forward_calls = 0;
  long ga_evaluations = 0;
  long verify_calls = 0;
};

class TracedEngine : public gatpg::session::Engine {
 public:
  TracedEngine(const gatpg::netlist::Circuit& c,
               const gatpg::hybrid::HybridConfig& config, unsigned depth,
               Tracer& tracer);

  const char* name() const override { return "ga-hitec"; }
  void run(gatpg::session::Session& s, const gatpg::session::PassConfig& pass,
           const gatpg::util::Deadline& pass_deadline) override;

  const TraceCounts& counts() const { return counts_; }

 private:
  struct Outcome {
    bool detected = false;
    bool untestable = false;
    bool aborted = false;
  };
  Outcome target(gatpg::session::Session& s, std::size_t fault_index,
                 const gatpg::session::PassConfig& pass);
  Outcome attempt(gatpg::session::Session& s, std::size_t fault_index,
                  const gatpg::session::PassConfig& pass,
                  const gatpg::util::Deadline& deadline,
                  gatpg::atpg::ForwardEngine& forward,
                  gatpg::atpg::DeterministicJustifier& det,
                  const gatpg::sim::State3& good_state,
                  const gatpg::sim::State3& faulty_state,
                  gatpg::sim::V3 launch_prev, gatpg::sim::Sequence& candidate);
  unsigned ga_sequence_length(const gatpg::session::PassConfig& pass) const;

  const gatpg::netlist::Circuit& c_;
  const gatpg::hybrid::HybridConfig& config_;
  unsigned depth_;
  Tracer& tracer_;
  gatpg::util::Rng rng_;
  gatpg::atpg::ObsDistances obs_dist_;
  gatpg::atpg::FrameModelPool pool_;
  TraceCounts counts_;
};

}  // namespace gabench
