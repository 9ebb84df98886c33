#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "gen/registry.h"
#include "gen/s27.h"
#include "helpers/random_circuit.h"
#include "helpers/reference_sim.h"
#include "hybrid/ga_justify.h"
#include "netlist/builder.h"

namespace gatpg::hybrid {
namespace {

using sim::State3;
using sim::V3;

GaJustifyConfig config(unsigned seq_len = 8, std::uint64_t seed = 1) {
  GaJustifyConfig c;
  c.population = 64;
  c.generations = 8;
  c.sequence_length = seq_len;
  c.seed = seed;
  return c;
}

fault::Fault benign_fault(const netlist::Circuit& c) {
  // A fault far from the state logic keeps the faulty machine behaving like
  // the good one for state purposes.
  return {c.primary_outputs()[0], fault::kOutputPin, false};
}

TEST(GaStateJustifier, FindsReachableState) {
  const auto c = gen::make_s27();
  // Find a genuinely reachable state first.
  util::Rng rng(5);
  test::ReferenceSimulator ref(c);
  for (const auto& v : test::random_sequence(c, rng, 6)) {
    ref.apply(v);
    ref.clock();
  }
  const State3 target = ref.state();
  const State3 all_x(3, V3::kX);

  GaStateJustifier justifier(c);
  const auto result = justifier.justify(benign_fault(c), target, all_x,
                                        all_x, config(),
                                        util::Deadline::unlimited());
  ASSERT_TRUE(result.success);

  // Verify the sequence independently on the good machine.
  test::ReferenceSimulator check(c);
  for (const auto& v : result.sequence) {
    check.apply(v);
    check.clock();
  }
  const State3 reached = check.state();
  for (std::size_t i = 0; i < target.size(); ++i) {
    if (target[i] != V3::kX) EXPECT_EQ(reached[i], target[i]);
  }
}

TEST(GaStateJustifier, SequencesAreBinary) {
  const auto c = gen::make_s27();
  GaStateJustifier justifier(c);
  const State3 all_x(3, V3::kX);
  const auto result = justifier.justify(
      benign_fault(c), {V3::k0, V3::kX, V3::kX}, all_x, all_x, config(),
      util::Deadline::unlimited());
  if (result.success) {
    for (const auto& v : result.sequence) {
      for (V3 bit : v) EXPECT_NE(bit, V3::kX);
    }
    EXPECT_LE(result.sequence.size(), config().sequence_length);
  }
}

TEST(GaStateJustifier, EarlyExitReturnsShortestObservedPrefix) {
  // Target the all-X-matching state: matched after the first vector.
  const auto c = gen::make_s27();
  GaStateJustifier justifier(c);
  const State3 all_x(3, V3::kX);
  const auto result =
      justifier.justify(benign_fault(c), all_x, all_x, all_x, config(),
                        util::Deadline::unlimited());
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.sequence.size(), 1u);
}

TEST(GaStateJustifier, HonorsFaultyMachineGoal) {
  // Faulty target on a flip-flop forced by the fault itself: a DFF output
  // stem s-a-1 fault pins the faulty machine's first flip-flop at 1, so a
  // faulty-target of 0 there can never match, while 1 always does.
  const auto c = gen::make_s27();
  const auto ff0 = c.flip_flops()[0];
  const fault::Fault f{ff0, fault::kOutputPin, true};
  GaStateJustifier justifier(c);
  const State3 all_x(3, V3::kX);

  State3 impossible(3, V3::kX);
  impossible[0] = V3::k0;
  const auto bad = justifier.justify(f, all_x, impossible, all_x, config(),
                                     util::Deadline::unlimited());
  EXPECT_FALSE(bad.success);

  State3 forced(3, V3::kX);
  forced[0] = V3::k1;
  const auto good = justifier.justify(f, all_x, forced, all_x, config(),
                                      util::Deadline::unlimited());
  EXPECT_TRUE(good.success);
}

TEST(GaStateJustifier, UsesCurrentGoodState) {
  // With the good machine already in the target state and an all-X faulty
  // target, the first vector trivially "matches" only if the state is
  // preserved; pick a target the current state satisfies after one step by
  // checking success is at least not worse than from all-X.
  const auto c = gen::make_s27();
  util::Rng rng(7);
  test::ReferenceSimulator ref(c);
  for (const auto& v : test::random_sequence(c, rng, 4)) {
    ref.apply(v);
    ref.clock();
  }
  const State3 current = ref.state();
  bool defined = false;
  for (V3 v : current) defined |= v != V3::kX;
  ASSERT_TRUE(defined);

  GaStateJustifier justifier(c);
  const State3 all_x(3, V3::kX);
  // Reaching `current` again from `current` should be easy (many FSM states
  // are revisitable); from all-X it may be harder.  We only require the
  // current-state run to succeed.
  const auto from_current =
      justifier.justify(benign_fault(c), current, all_x, current,
                        config(12, 9), util::Deadline::unlimited());
  EXPECT_TRUE(from_current.success);
}

TEST(GaStateJustifier, RespectsDeadline) {
  const auto c = gen::make_s27();
  GaStateJustifier justifier(c);
  const State3 all_x(3, V3::kX);
  State3 unreachable(3, V3::k1);  // may or may not be reachable; the point
                                  // is the expired deadline stops the GA
  const auto expired = util::Deadline::after_seconds(1e-9);
  while (!expired.expired()) {
  }
  const auto result = justifier.justify(benign_fault(c), unreachable,
                                        unreachable, all_x, config(), expired);
  EXPECT_LE(result.generations_run, 1u);
}

TEST(GaStateJustifier, RejectsBadPopulation) {
  const auto c = gen::make_s27();
  GaStateJustifier justifier(c);
  GaJustifyConfig cfg = config();
  cfg.population = 50;  // not a multiple of 64
  const State3 all_x(3, V3::kX);
  EXPECT_THROW(justifier.justify(benign_fault(c), all_x, all_x, all_x, cfg,
                                 util::Deadline::unlimited()),
               std::invalid_argument);
}

TEST(GaStateJustifier, DeterministicPerSeed) {
  const auto c = gen::make_s27();
  GaStateJustifier justifier(c);
  const State3 all_x(3, V3::kX);
  State3 target(3, V3::kX);
  target[1] = V3::k1;
  const auto a = justifier.justify(benign_fault(c), target, all_x, all_x,
                                   config(8, 33), util::Deadline::unlimited());
  const auto b = justifier.justify(benign_fault(c), target, all_x, all_x,
                                   config(8, 33), util::Deadline::unlimited());
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
}

TEST(GaStateJustifier, PopulationOf128RunsTwoBatches) {
  const auto c = gen::make_s27();
  GaStateJustifier justifier(c);
  GaJustifyConfig cfg = config();
  cfg.population = 128;
  cfg.generations = 2;
  const State3 all_x(3, V3::kX);
  State3 target(3, V3::k1);
  const auto result = justifier.justify(benign_fault(c), target, all_x, all_x,
                                        cfg, util::Deadline::unlimited());
  if (!result.success) {
    EXPECT_EQ(result.evaluations, 256u);  // 128 x 2 generations
  }
}

// ---------------------------------------------------------------------------
// Oracle: GaStateJustifier::justify against a naive batch evaluator built on
// the scalar reference simulator.  Every candidate runs alone from scratch on
// its own good/faulty pair; the early exit is the first match in batch,
// vector, slot order.  The same seed must give the same GA run exactly.

sim::Vector3 frame_of(const ga::Chromosome& chrom, std::size_t num_pi,
                      unsigned t) {
  sim::Vector3 v(num_pi);
  for (std::size_t i = 0; i < num_pi; ++i) {
    v[i] = chrom[t * num_pi + i] ? V3::k1 : V3::k0;
  }
  return v;
}

sim::Sequence decode_prefix(const ga::Chromosome& chrom, std::size_t num_pi,
                            unsigned length) {
  sim::Sequence seq;
  for (unsigned t = 0; t < length; ++t) {
    seq.push_back(frame_of(chrom, num_pi, t));
  }
  return seq;
}

unsigned match_count(const State3& desired, const State3& state) {
  unsigned n = 0;
  for (std::size_t i = 0; i < desired.size(); ++i) {
    n += desired[i] == V3::kX || desired[i] == state[i];
  }
  return n;
}

GaJustifyResult oracle_justify(const netlist::Circuit& c,
                               const fault::Fault& f,
                               const State3& desired_good,
                               const State3& desired_faulty,
                               const State3& current_good,
                               const GaJustifyConfig& config) {
  const std::size_t num_pi = c.primary_inputs().size();
  const std::size_t num_ff = c.flip_flops().size();
  const netlist::NodeId launch_line =
      f.pin == fault::kOutputPin
          ? f.node
          : c.fanins(f.node)[static_cast<std::size_t>(f.pin)];
  const V3 launch = f.stuck_at ? V3::k1 : V3::k0;

  ga::GaConfig ga_config;
  ga_config.population_size = config.population;
  ga_config.generations = config.generations;
  ga_config.chromosome_bits = config.sequence_length * num_pi;
  ga_config.selection = config.selection;
  ga_config.seed = config.seed;

  GaJustifyResult result;
  auto evaluate = [&](std::span<const ga::Chromosome> population,
                      std::span<double> fitness) {
    std::optional<std::size_t> winner;
    unsigned winner_t = 0;
    for (std::size_t k = 0; k < population.size(); ++k) {
      test::ReferenceSimulator good(c);
      good.set_state(current_good);
      test::ReferenceSimulator bad(c, f);
      bad.set_fault_active(!f.is_transition());
      bad.set_latch_fault_active(!f.is_transition());
      std::optional<unsigned> first;
      for (unsigned t = 0; t < config.sequence_length && !first; ++t) {
        const sim::Vector3 v = frame_of(population[k], num_pi, t);
        good.apply(v);
        bad.apply(v);
        const bool next_act = good.value(launch_line) == launch;
        if (f.is_transition()) bad.set_latch_fault_active(next_act);
        good.clock();
        bad.clock();
        if (f.is_transition()) bad.set_fault_active(next_act);
        if (match_count(desired_good, good.state()) == num_ff &&
            match_count(desired_faulty, bad.state()) == num_ff) {
          first = t;
        }
      }
      if (first) {
        // Batch order first, then vector, then slot.
        const bool better = !winner || k / 64 < *winner / 64 ||
                            (k / 64 == *winner / 64 && *first < winner_t);
        if (better) {
          winner = k;
          winner_t = *first;
        }
        continue;
      }
      const double raw =
          config.good_weight * match_count(desired_good, good.state()) +
          config.faulty_weight * match_count(desired_faulty, bad.state());
      fitness[k] = config.square_fitness ? raw * raw : raw;
    }
    if (!winner) return false;
    result.success = true;
    result.sequence =
        decode_prefix(population[*winner], num_pi, winner_t + 1);
    for (double& fit : fitness) fit = 0.0;
    return true;
  };

  const ga::GaResult ga_result = ga::GaEngine(ga_config).run(evaluate);
  result.best_fitness = ga_result.best_fitness;
  result.evaluations = ga_result.evaluations;
  result.generations_run = ga_result.generations_run;
  if (!result.success && !ga_result.best.empty()) {
    result.sequence =
        decode_prefix(ga_result.best, num_pi, config.sequence_length);
  }
  return result;
}

/// Runs the oracle and the production justifier on every population/thread
/// shape; returns whether the GA succeeded (identical for all shapes).
bool expect_matches_oracle(const netlist::Circuit& c, const fault::Fault& f,
                           const State3& desired_good,
                           const State3& desired_faulty,
                           const State3& current_good, std::uint64_t seed,
                           unsigned sequence_length = 8) {
  bool success = false;
  for (const std::size_t population : {64u, 128u}) {
    GaJustifyConfig cfg;
    cfg.population = population;
    cfg.generations = population == 64 ? 4 : 3;
    cfg.sequence_length = sequence_length;
    cfg.seed = seed;
    const GaJustifyResult want = oracle_justify(
        c, f, desired_good, desired_faulty, current_good, cfg);
    success = want.success;
    for (const unsigned threads : {1u, 4u}) {
      cfg.parallel.threads = threads;
      const GaJustifyResult got =
          GaStateJustifier(c).justify(f, desired_good, desired_faulty,
                                      current_good, cfg,
                                      util::Deadline::unlimited());
      const std::string where = c.name() + " " + fault::to_string(c, f) +
                                " population " + std::to_string(population) +
                                " threads " + std::to_string(threads);
      EXPECT_EQ(got.success, want.success) << where;
      EXPECT_EQ(got.sequence, want.sequence) << where;
      EXPECT_EQ(got.best_fitness, want.best_fitness) << where;
      EXPECT_EQ(got.evaluations, want.evaluations) << where;
      EXPECT_EQ(got.generations_run, want.generations_run) << where;
    }
  }
  return success;
}

/// Stuck-at and transition faults on a gate output, a gate input pin, and a
/// flip-flop D pin and Q output, a stuck-at fault on a primary input, and
/// transition faults whose launch line is a primary input (its stem, and a
/// gate pin it drives when there is one).  The transition faults' launch
/// lines thus cover a gate, a flip-flop and a primary input.
std::vector<fault::Fault> oracle_faults(const netlist::Circuit& c,
                                        util::Rng& rng) {
  const auto topo = c.topo_order();
  const auto pis = c.primary_inputs();
  const auto ffs = c.flip_flops();
  const netlist::NodeId gate = topo[rng.below(topo.size())];
  const netlist::NodeId pin_gate = topo[rng.below(topo.size())];
  const int pin = static_cast<int>(rng.below(c.fanin_count(pin_gate)));
  const netlist::NodeId ff = ffs[rng.below(ffs.size())];
  const netlist::NodeId pi = pis[rng.below(pis.size())];
  std::vector<fault::Fault> faults = {
      {gate, fault::kOutputPin, rng.bit()},
      {pin_gate, pin, rng.bit()},
      {pis[rng.below(pis.size())], fault::kOutputPin, rng.bit()},
      {ff, 0, rng.bit()},
      {ff, fault::kOutputPin, rng.bit()},
      fault::make_transition(gate, fault::kOutputPin, rng.bit()),
      fault::make_transition(pin_gate, pin, rng.bit()),
      fault::make_transition(ff, 0, rng.bit()),
      fault::make_transition(ff, fault::kOutputPin, rng.bit()),
      fault::make_transition(pi, fault::kOutputPin, rng.bit()),
  };
  for (const netlist::NodeId g : c.fanouts(pi)) {
    if (!netlist::is_combinational(c.type(g))) continue;
    const auto fanins = c.fanins(g);
    const auto at = std::find(fanins.begin(), fanins.end(), pi);
    faults.push_back(fault::make_transition(
        g, static_cast<int>(at - fanins.begin()), rng.bit()));
    break;
  }
  return faults;
}

/// A goal with one or two literals on random flip-flops, copied from
/// `values` (a reached state) where it is defined and random elsewhere.
State3 sparse_goal(const State3& values, util::Rng& rng) {
  State3 goal(values.size(), V3::kX);
  const unsigned literals = 1 + static_cast<unsigned>(rng.below(2));
  for (unsigned k = 0; k < literals; ++k) {
    const std::size_t i = rng.below(values.size());
    goal[i] = values[i] != V3::kX ? values[i]
                                  : (rng.bit() ? V3::k1 : V3::k0);
  }
  return goal;
}

/// Checks every oracle fault against five goals: the good and faulty
/// states one random sequence reaches (often justifiable, exercising the
/// early exit), a fully specified random good or faulty state (often not,
/// exercising full fitness evaluation and evolution on each machine), and a
/// sparse good-only or faulty-only goal of one or two literals, whose goal
/// cone leaves most of the circuit out.  `sparse_only` keeps just the two
/// sparse goals and the transition faults.  Returns {successes, failures}.
std::pair<int, int> check_circuit(const netlist::Circuit& c,
                                  std::uint64_t seed,
                                  unsigned sequence_length = 8,
                                  bool sparse_only = false) {
  util::Rng rng(seed);
  const std::size_t num_ff = c.flip_flops().size();
  test::ReferenceSimulator warm(c);
  for (const auto& v : test::random_sequence(c, rng, 3)) {
    warm.apply(v);
    warm.clock();
  }
  const State3 current = warm.state();
  const State3 all_x(num_ff, V3::kX);

  int successes = 0;
  int failures = 0;
  for (const fault::Fault& f : oracle_faults(c, rng)) {
    test::ReferenceSimulator good(c);
    good.set_state(current);
    test::ReferenceSimulator bad(c, f);
    for (const auto& v : test::random_sequence(c, rng, 6)) {
      good.apply(v);
      bad.apply(v);
      good.clock();
      bad.clock();
    }
    State3 random_state(num_ff);
    for (V3& v : random_state) v = rng.bit() ? V3::k1 : V3::k0;
    const State3 sparse_good = sparse_goal(good.state(), rng);
    const State3 sparse_faulty = sparse_goal(bad.state(), rng);
    const std::uint64_t ga_seed = rng();
    std::vector<std::pair<State3, State3>> goals = {
        {sparse_good, all_x}, {all_x, sparse_faulty}};
    if (sparse_only && !f.is_transition()) continue;
    if (!sparse_only) {
      goals.insert(goals.begin(), {{good.state(), bad.state()},
                                   {random_state, all_x},
                                   {all_x, random_state}});
    }
    for (const auto& [dg, df] : goals) {
      if (expect_matches_oracle(c, f, dg, df, current, ga_seed,
                                sequence_length)) {
        ++successes;
      } else {
        ++failures;
      }
    }
  }
  return {successes, failures};
}

TEST(GaFitnessOracle, MatchesNaiveEvaluatorOnRandomCircuits) {
  int successes = 0;
  int failures = 0;
  for (const std::uint64_t seed : {3u, 8u, 21u}) {
    test::RandomCircuitSpec spec;
    spec.seed = seed;
    spec.num_ffs = 3 + seed % 3;
    spec.num_gates = 40;
    const auto [s, f] = check_circuit(test::make_random_circuit(spec), seed);
    successes += s;
    failures += f;
  }
  EXPECT_GT(successes, 0);
  EXPECT_GT(failures, 0);
}

TEST(GaFitnessOracle, MatchesNaiveEvaluatorOnRegistryCircuits) {
  int successes = 0;
  int failures = 0;
  for (const char* name : {"s27", "g298"}) {
    const auto [s, f] = check_circuit(gen::make_circuit(name), 11);
    successes += s;
    failures += f;
  }
  EXPECT_GT(successes, 0);
  EXPECT_GT(failures, 0);
}

/// A shift register that shifts only when both enable inputs are 1, so a
/// candidate ends its sequence still holding part of the state it started
/// from.  Stage i's goal cone reaches back i + 1 frames: its sequential
/// fan-in closure has depth i.
netlist::Circuit make_hold_register(std::size_t bits) {
  using netlist::GateType;
  netlist::CircuitBuilder b;
  const std::vector<netlist::NodeId> enables = {b.add_input("e0"),
                                                b.add_input("e1")};
  const netlist::NodeId d = b.add_input("d");
  const netlist::NodeId en = b.add_gate(GateType::kAnd, "en", enables);
  const netlist::NodeId hold = b.add_gate(GateType::kNot, "hold", {en});
  std::vector<netlist::NodeId> q;
  for (std::size_t i = 0; i < bits; ++i) {
    q.push_back(b.add_dff("q" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < bits; ++i) {
    const std::string name = "d" + std::to_string(i);
    const netlist::NodeId load = b.add_gate(GateType::kAnd, name + "_load",
                                            {en, i == 0 ? d : q[i - 1]});
    const netlist::NodeId keep =
        b.add_gate(GateType::kAnd, name + "_keep", {hold, q[i]});
    b.set_dff_input(q[i], b.add_gate(GateType::kOr, name, {load, keep}));
  }
  b.mark_output(q.back());
  return std::move(b).build("hold_register");
}

TEST(GaFitnessOracle, FaultyMachineRestartsAllXEveryBatch) {
  // The faulty last stage's D pin is stuck at 0, so the faulty goal "all
  // ones" is unreachable: every generation is scored, and the faulty scores
  // (and so the evolution) show whether each batch really started from
  // all-X.
  constexpr std::size_t kBits = 6;
  const auto c = make_hold_register(kBits);
  const auto q = c.flip_flops();

  const fault::Fault f{q.back(), 0, false};
  const State3 all_x(kBits, V3::kX);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    EXPECT_FALSE(expect_matches_oracle(c, f, all_x, State3(kBits, V3::k1),
                                       State3(kBits, V3::k0), seed));
  }
}

TEST(GaFitnessOracle, SequenceLongerThanClosureDepth) {
  // Sparse goals on one or two stages of a six-stage hold register, whose
  // closure depth (at most 5) the 8- and 12-frame sequences outrun, so the
  // early frames run the whole closure and the later ones a shrinking part
  // of it.  Every oracle fault (launch lines on a gate, a flip-flop and a
  // primary input) meets each goal shape.
  const auto c = make_hold_register(6);
  int successes = 0;
  int failures = 0;
  for (const unsigned length : {8u, 12u}) {
    const auto [s, f] = check_circuit(c, 40 + length, length);
    successes += s;
    failures += f;
  }
  EXPECT_GT(successes, 0);
  EXPECT_GT(failures, 0);
}

TEST(GaFitnessOracle, MatchesNaiveEvaluatorOnDeepClosure) {
  // am2910's microprogram counter, stack and register closures run several
  // frames deep; 10-frame sequences with sparse goals leave whole parts of
  // it out of the early and late frames.  Transition faults only, to keep
  // the scalar oracle's cost down: their launch cones are the part of the
  // cone stuck-at faults do not exercise.
  const auto [s, f] =
      check_circuit(gen::make_circuit("am2910"), 5, 10, /*sparse_only=*/true);
  EXPECT_GT(s + f, 0);
}

}  // namespace
}  // namespace gatpg::hybrid
