// Simulation-based GA test generation (GATEST/CRIS style, the paper's
// references [15-18] and the other half of its motivation).
//
// Where GA-HITEC targets one fault and uses the GA only for state
// justification, this generator evolves whole candidate *test sequences*
// against the undetected-fault population: the fitness of a candidate is
// the number of sampled faults it would detect plus partial credit for
// fault effects it parks on flip-flops (the classic GATEST shaping term).
// The best sequence of each GA round is appended to the test set (with
// fault dropping), and generation stops when rounds stop paying.
//
// SimGenEngine is the session::Engine form (one GA round per step); it is
// both a baseline for the hybrid benches and the simulation-based phase of
// the alternating hybrid (alternating.h).  SimulationTestGenerator is the
// conventional facade over a self-owned session.
#pragma once

#include <cstdint>

#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "ga/genetic.h"
#include "netlist/circuit.h"
#include "session/session.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace gatpg::tpg {

struct SimGenConfig {
  std::size_t population = 64;   // multiple of 2 (GA requirement)
  unsigned generations = 8;
  unsigned sequence_length = 20;
  /// Undetected faults sampled per fitness evaluation round.
  std::size_t fault_sample = 64;
  /// Partial credit for a fault effect left on a flip-flop.
  double effect_weight = 0.2;
  /// Stop after this many consecutive rounds without a new detection.
  unsigned stagnation_rounds = 4;
  double time_limit_s = 10.0;
  std::uint64_t seed = 1;
  /// Fault-simulator options (threads, window).
  fault::FaultSimConfig faultsim;
};

/// The simulation-based generator now returns the unified session result
/// (detected()/rounds/evaluations keep their former meanings).
using SimGenResult = session::SessionResult;

/// One GA round per step(); run() loops rounds until coverage stalls.
/// Holds its own RNG/round-counter streams so seeded runs reproduce
/// bit-identically regardless of which session drives it.
class SimGenEngine : public session::Engine {
 public:
  SimGenEngine(const netlist::Circuit& c, const SimGenConfig& config);

  const char* name() const override { return "simgen"; }
  void run(session::Session& session, const session::PassConfig& pass,
           const util::Deadline& deadline) override;
  /// One GA round: evolves a sequence against a sample of the undropped
  /// faults and commits the best.  Returns the newly detected count.
  std::size_t step(session::Session& session,
                   const util::Deadline& deadline);

  /// Snapshot hooks: the sampling RNG stream, the per-round GA seed
  /// counter, and the stagnation counter (hoisted out of run()'s locals so
  /// a resumed run continues the stall window where it left off).
  void save_state(serialize::Writer& w) const override;
  void load_state(serialize::Reader& r) override;

 private:
  const netlist::Circuit& c_;
  const SimGenConfig& config_;
  util::Rng rng_;
  std::uint64_t round_counter_ = 0;
  unsigned stagnant_ = 0;      // consecutive rounds without a detection
  bool resuming_ = false;      // set by load_state; run() keeps stagnant_
};

class SimulationTestGenerator {
 public:
  SimulationTestGenerator(const netlist::Circuit& c, SimGenConfig config);

  /// Runs rounds until coverage stalls, time expires, or everything is
  /// detected.  An optional observer receives the single pass report.
  SimGenResult run(session::ProgressObserver* observer = nullptr);

  // -- Stepwise interface (used by tests and examples) ---------------------

  /// One GA round: evolves a sequence against the current undetected set
  /// and commits the best.  Returns the number of newly detected faults.
  std::size_t step(const util::Deadline& deadline);

  /// Applies an externally generated sequence (e.g. from the deterministic
  /// engine) with fault dropping.  Returns newly detected count.
  std::size_t apply(const sim::Sequence& seq);

  const fault::FaultSimulator& fault_simulator() const {
    return session_.simulator();
  }
  fault::FaultSimulator& fault_simulator() { return session_.simulator(); }
  const fault::FaultList& fault_list() const {
    return session_.faults().list();
  }
  const sim::Sequence& test_set() const { return session_.tests().test_set(); }
  long evaluations() const { return session_.evaluations(); }

 private:
  SimGenConfig config_;
  session::Session session_;
  SimGenEngine engine_;
};

}  // namespace gatpg::tpg
