// Temporary tool: captures golden pre-refactor results for the session-layer
// equivalence tests (tests/test_session.cpp).  Built by hand against the
// library; not part of the CMake tree.
#include <cstdio>
#include <cstdint>

#include "gen/registry.h"
#include "hybrid/hybrid_atpg.h"
#include "tpg/alternating.h"
#include "tpg/randgen.h"
#include "tpg/simgen.h"

using namespace gatpg;

static std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}

static std::uint64_t hash_sequence(const sim::Sequence& seq) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& vec : seq) {
    h = fnv1a(h, 0x5eedULL);
    for (sim::V3 v : vec) h = fnv1a(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

static std::uint64_t hash_segments(const std::vector<sim::Sequence>& segs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& s : segs) {
    h = fnv1a(h, s.size());
    h = fnv1a(h, hash_sequence(s));
  }
  return h;
}

static void hybrid_case(const char* name, const char* circuit,
                        hybrid::HybridConfig cfg, unsigned threads) {
  cfg.parallel.threads = threads;
  const auto c = gen::make_circuit(circuit);
  const auto r = hybrid::HybridAtpg(c, cfg).run();
  std::uint64_t state_hash = 0xcbf29ce484222325ULL;
  for (auto s : r.fault_state)
    state_hash = fnv1a(state_hash, static_cast<std::uint64_t>(s));
  std::printf(
      "%s t=%u: test=0x%016llx segs=0x%016llx state=0x%016llx det=%zu unt=%zu "
      "vec=%zu segs_n=%zu\n",
      name, threads, (unsigned long long)hash_sequence(r.test_set),
      (unsigned long long)hash_segments(r.segments),
      (unsigned long long)state_hash, r.detected(), r.untestable(),
      r.test_set.size(), r.segments.size());
  std::printf(
      "  counters: tgt=%ld fwd=%ld gai=%ld gas=%ld djc=%ld djs=%ld vf=%ld "
      "nj=%ld ab=%ld passes=%zu\n",
      r.counters.targeted, r.counters.forward_solutions,
      r.counters.ga_invocations, r.counters.ga_successes,
      r.counters.det_justify_calls, r.counters.det_justify_successes,
      r.counters.verify_failures, r.counters.no_justification_needed,
      r.counters.aborted_faults, r.passes.size());
  if (cfg.state_store.enabled) {
    const auto& st = r.counters.store;
    std::printf(
        "  store: seq=%ld/%ld (vf=%ld ins=%ld) unjust=%ld/%ld (ins=%ld) "
        "fwd=%ld seeds=%ld reach=%ld near=%ld\n",
        st.seq_hits, st.seq_hits + st.seq_misses, st.seq_verify_failures,
        st.seq_inserts, st.unjust_hits, st.unjust_hits + st.unjust_misses,
        st.unjust_inserts, st.forward_cache_hits, st.ga_seeds_served,
        st.reachable_inserts, st.near_miss_inserts);
  }
  for (const auto& p : r.passes)
    std::printf("  pass: det=%zu vec=%zu unt=%zu\n", p.detected, p.vectors,
                p.untestable);
}

int main() {
  for (unsigned threads : {1u, 4u}) {
    {
      hybrid::HybridConfig cfg;
      cfg.schedule = session::PassSchedule::ga_hitec(1.0);
      cfg.seed = 7;
      hybrid_case("hybrid_ga_s27", "s27", cfg, threads);
    }
    {
      hybrid::HybridConfig cfg;
      cfg.schedule = session::PassSchedule::hitec(1.0);
      cfg.seed = 7;
      hybrid_case("hybrid_hitec_s27", "s27", cfg, threads);
    }
    {
      // Deterministic bounded-search schedule on a mid-size circuit: big
      // wall-clock limits (never bind), modest backtrack budgets (bind
      // deterministically).
      hybrid::HybridConfig cfg;
      cfg.schedule = session::PassSchedule::ga_hitec(1.0);
      for (auto& p : cfg.schedule.passes) {
        p.time_limit_s = 1000.0;
        p.max_backtracks = 300;
      }
      cfg.schedule.passes[0].ga_population = 64;
      cfg.schedule.passes[0].ga_generations = 2;
      cfg.schedule.passes[1].ga_population = 64;
      cfg.schedule.passes[1].ga_generations = 2;
      cfg.max_solutions_per_fault = 4;
      cfg.seed = 3;
      hybrid_case("hybrid_ga_g298", "g298", cfg, threads);
    }
    {
      // State-knowledge layer enabled: a distinct golden family (the store
      // legitimately changes search trajectories) that must itself be
      // deterministic and thread-count-independent.
      hybrid::HybridConfig cfg;
      cfg.schedule = session::PassSchedule::ga_hitec(1.0);
      cfg.seed = 7;
      cfg.state_store.enabled = true;
      hybrid_case("hybrid_ga_s27_store", "s27", cfg, threads);
    }
    {
      hybrid::HybridConfig cfg;
      cfg.schedule = session::PassSchedule::hitec(1.0);
      cfg.seed = 7;
      cfg.state_store.enabled = true;
      hybrid_case("hybrid_hitec_s27_store", "s27", cfg, threads);
    }
    {
      hybrid::HybridConfig cfg;
      cfg.schedule = session::PassSchedule::ga_hitec(1.0);
      for (auto& p : cfg.schedule.passes) {
        p.time_limit_s = 1000.0;
        p.max_backtracks = 300;
      }
      cfg.schedule.passes[0].ga_population = 64;
      cfg.schedule.passes[0].ga_generations = 2;
      cfg.schedule.passes[1].ga_population = 64;
      cfg.schedule.passes[1].ga_generations = 2;
      cfg.max_solutions_per_fault = 4;
      cfg.seed = 3;
      cfg.state_store.enabled = true;
      hybrid_case("hybrid_ga_g298_store", "g298", cfg, threads);
    }
    {
      tpg::SimGenConfig cfg;
      cfg.population = 16;
      cfg.generations = 3;
      cfg.sequence_length = 8;
      cfg.fault_sample = 8;
      cfg.stagnation_rounds = 2;
      cfg.time_limit_s = 1000.0;
      cfg.seed = 7;
      cfg.faultsim.parallel.threads = threads;
      const auto c = gen::make_circuit("s27");
      const auto r = tpg::SimulationTestGenerator(c, cfg).run();
      std::printf(
          "simgen_s27 t=%u: test=0x%016llx det=%zu vec=%zu rounds=%ld "
          "evals=%ld\n",
          threads, (unsigned long long)hash_sequence(r.test_set), r.detected(),
          r.test_set.size(), r.rounds, r.evaluations);
    }
    {
      tpg::SimGenConfig cfg;
      cfg.population = 16;
      cfg.generations = 2;
      cfg.sequence_length = 12;
      cfg.fault_sample = 32;
      cfg.stagnation_rounds = 2;
      cfg.time_limit_s = 1000.0;
      cfg.seed = 11;
      cfg.faultsim.parallel.threads = threads;
      const auto c = gen::make_circuit("g386");
      const auto r = tpg::SimulationTestGenerator(c, cfg).run();
      std::printf(
          "simgen_g386 t=%u: test=0x%016llx det=%zu vec=%zu rounds=%ld "
          "evals=%ld\n",
          threads, (unsigned long long)hash_sequence(r.test_set), r.detected(),
          r.test_set.size(), r.rounds, r.evaluations);
    }
    {
      tpg::AlternatingConfig cfg;
      cfg.population = 16;
      cfg.generations = 2;
      cfg.sequence_length = 8;
      cfg.fault_sample = 8;
      cfg.switch_after = 1;
      cfg.time_limit_s = 1000.0;
      cfg.det_limits.time_limit_s = 1000.0;
      cfg.det_limits.max_backtracks = 500;
      cfg.seed = 5;
      const auto c = gen::make_circuit("s27");
      const auto r = tpg::alternating_hybrid_generate(c, cfg);
      std::printf(
          "alt_s27 t=%u: test=0x%016llx det=%zu unt=%zu vec=%zu ga_rounds=%ld "
          "det_targets=%ld det_successes=%ld\n",
          threads, (unsigned long long)hash_sequence(r.test_set), r.detected(),
          r.untestable(), r.test_set.size(), r.rounds, r.counters.targeted,
          r.counters.committed_tests);
    }
    {
      tpg::AlternatingConfig cfg;
      cfg.population = 16;
      cfg.generations = 2;
      cfg.sequence_length = 12;
      cfg.fault_sample = 16;
      cfg.switch_after = 1;
      cfg.time_limit_s = 1000.0;
      cfg.det_limits.time_limit_s = 1000.0;
      cfg.det_limits.max_backtracks = 300;
      cfg.det_failures_to_stop = 4;
      cfg.seed = 9;
      const auto c = gen::make_circuit("g386");
      const auto r = tpg::alternating_hybrid_generate(c, cfg);
      std::printf(
          "alt_g386 t=%u: test=0x%016llx det=%zu unt=%zu vec=%zu "
          "ga_rounds=%ld det_targets=%ld det_successes=%ld\n",
          threads, (unsigned long long)hash_sequence(r.test_set), r.detected(),
          r.untestable(), r.test_set.size(), r.rounds, r.counters.targeted,
          r.counters.committed_tests);
    }
  }
  {
    tpg::RandomGenConfig cfg;
    cfg.seed = 3;
    const auto c = gen::make_circuit("s27");
    const auto r = tpg::random_pattern_generate(c, cfg);
    std::printf("rand_s27: test=0x%016llx det=%zu vec=%zu\n",
                (unsigned long long)hash_sequence(r.test_set), r.detected(),
                r.test_set.size());
  }
  {
    tpg::RandomGenConfig cfg;
    cfg.seed = 5;
    cfg.weighted = true;
    cfg.max_vectors = 512;
    const auto c = gen::make_circuit("g526");
    const auto r = tpg::random_pattern_generate(c, cfg);
    std::uint64_t wh = 0xcbf29ce484222325ULL;
    for (double w : r.weights)
      wh = fnv1a(wh, static_cast<std::uint64_t>(w * 100));
    std::printf("rand_g526w: test=0x%016llx det=%zu vec=%zu weights=0x%016llx\n",
                (unsigned long long)hash_sequence(r.test_set), r.detected(),
                r.test_set.size(), (unsigned long long)wh);
  }
  return 0;
}
