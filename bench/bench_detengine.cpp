// Deterministic per-fault engine bench: for each circuit a sample of
// collapsed faults is driven through ForwardEngine::next_solution (plus the
// required_state minimization of every solved fault) with a shared
// FrameModelPool, so per-fault models are reset-and-reused, and an
// unlimited deadline, so the search clips only on the backtrack budget.
//
// Emits BENCH_detengine.json with wall-clock, decisions/sec, gate-eval and
// event counts, and the pool's construction/acquire tallies
// (constructions ≪ acquires proves reuse).  Every counter except wall time
// is a deterministic function of (circuit, fault sample, limits), so the
// threshold check (tools/check_bench.py --bench detengine) pins them
// exactly against the committed snapshot.
//
// A second phase benches speculative parallel fault targeting (DESIGN.md
// §4j): each circuit runs a backtrack-bounded hybrid session serially and
// at --threads=N lanes, verifies the two results are bit-identical (the
// in-order-commit determinism contract), and records the lane path's
// speculation ledger — speculated / committed / discarded tasks and the
// wasted gate evaluations of discarded work; the epoch count is printed
// only — plus the serial/parallel
// wall-clock ratio and the host's hardware_concurrency (so the checker
// knows when the speedup figure was measured without enough cores to
// mean anything).
//
// Usage: bench_detengine [--seed=N] [--full] [--threads=N] [--max-faults=N]
//                        [--backtracks=N] [--solutions=N] [--repeat=N]
//                        [names...]
//   --full adds the largest analog (g5378); --threads sets the speculative
//   lane count of the targeting phase (default 4).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "atpg/detengine.h"
#include "common.h"
#include "fault/faultlist.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/depth.h"
#include "session/session.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace gatpg;

// Row key of the single engine row per circuit; the committed snapshot's
// rows are matched by it.
constexpr const char* kEngineKey = "incremental-flat-pooled";

struct Sample {
  double wall_s = 0.0;
  long decisions = 0;
  long backtracks = 0;
  long gate_evals = 0;
  long events = 0;
  std::size_t solved = 0;
  std::size_t untestable = 0;
  std::size_t model_builds = 0;
  std::size_t model_acquires = 0;

  double evals_per_decision() const {
    return decisions > 0
               ? static_cast<double>(gate_evals) /
                     static_cast<double>(decisions)
               : 0.0;
  }
  double decisions_per_s() const {
    return wall_s > 0 ? static_cast<double>(decisions) / wall_s : 0.0;
  }
};

struct CircuitResult {
  std::string name;
  std::size_t faults = 0;
  std::size_t sampled = 0;
  Sample sample;
};

/// Runs one fault to completion (bounded by the backtrack budget and the
/// per-fault solution cap) and adds its effort to `sample`.  The unlimited
/// deadline keeps the search deterministic: it clips on exactly the same
/// backtrack count every run, never on wall clock.
void run_fault(const netlist::Circuit& c, const fault::Fault& f,
               const atpg::SearchLimits& limits,
               const atpg::ObsDistances& obs, unsigned max_solutions,
               atpg::FrameModelPool* pool, Sample& sample) {
  atpg::ForwardEngine engine(c, f, limits, obs, pool);
  const auto deadline = util::Deadline::unlimited();
  atpg::ForwardStatus status = atpg::ForwardStatus::kAborted;
  unsigned solutions = 0;
  for (unsigned s = 0; s < max_solutions; ++s) {
    status = engine.next_solution(deadline);
    if (status != atpg::ForwardStatus::kSolved) break;
    ++solutions;
    (void)engine.required_state();
  }
  const atpg::SearchStats& st = engine.stats();
  sample.decisions += st.decisions;
  sample.backtracks += st.backtracks;
  sample.gate_evals += st.gate_evals;
  sample.events += st.events;
  if (solutions > 0) ++sample.solved;
  if (status == atpg::ForwardStatus::kUntestable) ++sample.untestable;
}

// ---------------------------------------------------------------------------
// Phase 2: speculative parallel fault targeting (serial vs N lanes).

/// Backtrack-bounded GA+deterministic schedule — no wall-clock limits, the
/// shape the speculative lane path accepts, so serial and lane runs are a
/// pure function of (circuit, fault list, seed) and comparable bit for bit.
hybrid::HybridConfig targeting_config(unsigned lanes, std::uint64_t seed,
                                      long backtracks) {
  hybrid::HybridConfig cfg;
  session::PassConfig ga;
  ga.mode = session::JustifyMode::kGenetic;
  ga.time_limit_s = 0.0;
  ga.max_backtracks = backtracks;
  ga.ga_population = 64;
  ga.ga_generations = 2;
  ga.seq_len_multiplier = 2.0;
  session::PassConfig det;
  det.mode = session::JustifyMode::kDeterministic;
  det.time_limit_s = 0.0;
  det.max_backtracks = backtracks;
  cfg.schedule.passes = {ga, det};
  cfg.max_solutions_per_fault = 4;
  cfg.seed = seed;
  cfg.parallel.threads = 1;
  cfg.state_store.enabled = true;
  cfg.target_parallel.lanes = lanes;
  return cfg;
}

struct TargetSample {
  unsigned lanes = 1;
  double wall_s = 0.0;
  hybrid::SpecStats spec;
  session::SessionResult result;
};

TargetSample run_targeting(const netlist::Circuit& c,
                           const fault::FaultList& faults, unsigned lanes,
                           std::uint64_t seed, long backtracks, int repeat) {
  const hybrid::HybridConfig cfg = targeting_config(lanes, seed, backtracks);
  const session::SessionConfig scfg = cfg.session_config();
  TargetSample out;
  out.lanes = lanes;
  for (int rep = 0; rep < repeat; ++rep) {
    session::Session s(c, faults, scfg);
    util::Rng rng(cfg.seed);
    hybrid::HybridEngine engine(c, cfg, netlist::sequential_depth(c), rng);
    const util::Stopwatch sw;
    session::SessionResult result = s.run(engine, cfg.schedule);
    const double elapsed = sw.seconds();
    // Min across repeats (noise only adds time); the counters and the
    // speculation ledger are kept from the last repeat — the task counts
    // are deterministic, only wasted_gate_evals varies with how far a
    // discarded lane got before noticing the cancel flag.
    out.wall_s = rep == 0 ? elapsed : std::min(out.wall_s, elapsed);
    out.spec = engine.spec_stats();
    out.result = std::move(result);
  }
  return out;
}

/// The determinism contract of DESIGN.md §4j, checked on the bench's own
/// runs: every output bit of the lane run equals the serial run.
bool targeting_identical(const session::SessionResult& a,
                         const session::SessionResult& b) {
  return a.digests.faults == b.digests.faults &&
         a.digests.tests == b.digests.tests &&
         a.digests.store == b.digests.store &&
         a.fault_state == b.fault_state && a.test_set == b.test_set &&
         a.segments == b.segments &&
         a.counters.committed_tests == b.counters.committed_tests &&
         a.counters.det_gate_evals == b.counters.det_gate_evals;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &positional);
  std::size_t max_faults = 160;
  long backtracks = 300;
  unsigned max_solutions = 3;
  int repeat = 2;
  std::vector<std::string> names;
  for (const std::string& arg : positional) {
    if (arg.rfind("--max-faults=", 0) == 0) {
      max_faults = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--backtracks=", 0) == 0) {
      backtracks = std::atol(arg.c_str() + 13);
    } else if (arg.rfind("--solutions=", 0) == 0) {
      max_solutions = static_cast<unsigned>(std::atoi(arg.c_str() + 12));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::atoi(arg.c_str() + 9);
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) {
    names = {"g298", "g526", "g820", "g1423"};
    if (options.full) names.push_back("g5378");
  }

  std::printf(
      "Deterministic-engine bench "
      "(max_faults=%zu, backtracks=%ld, solutions=%u, repeat=%d)\n\n",
      max_faults, backtracks, max_solutions, repeat);

  std::vector<CircuitResult> results;
  for (const std::string& name : names) {
    const auto c = bench::load_circuit(name);
    const auto faults = fault::collapse(c).faults;
    CircuitResult cr;
    cr.name = name;
    cr.faults = faults.size();

    // Deterministic even sample over the collapsed list.
    const std::size_t stride =
        faults.size() > max_faults ? (faults.size() + max_faults - 1) /
                                         max_faults
                                   : 1;
    std::vector<std::size_t> picks;
    for (std::size_t i = 0; i < faults.size(); i += stride) picks.push_back(i);
    cr.sampled = picks.size();

    const auto obs = atpg::share_observation_distances(c);
    atpg::SearchLimits limits;
    limits.max_backtracks = backtracks;

    // Min across repeats: the noise-robust estimator (scheduler
    // interference only ever adds time).
    double wall = 0.0;
    for (int rep = 0; rep < repeat; ++rep) {
      Sample scratch;  // only the last repeat's counters are kept
      // A fresh pool per repeat keeps the tallies comparable run-to-run.
      atpg::FrameModelPool pool(c);
      const util::Stopwatch sw;
      for (const std::size_t i : picks) {
        run_fault(c, faults[i], limits, obs, max_solutions, &pool, scratch);
      }
      const double elapsed = sw.seconds();
      wall = rep == 0 ? elapsed : std::min(wall, elapsed);
      scratch.model_builds = pool.constructions();
      scratch.model_acquires = pool.acquires();
      cr.sample = scratch;
    }
    cr.sample.wall_s = wall;

    const Sample& s = cr.sample;
    std::printf(
        "%-8s %-23s  wall=%8.2fms  dec=%8ld  bt=%8ld  "
        "gate_evals=%11ld  evals/dec=%8.1f  events=%10ld  "
        "solved=%zu  unt=%zu  builds=%zu acquires=%zu\n",
        cr.name.c_str(), kEngineKey, s.wall_s * 1e3, s.decisions,
        s.backtracks, s.gate_evals, s.evals_per_decision(), s.events,
        s.solved, s.untestable, s.model_builds, s.model_acquires);
    results.push_back(std::move(cr));
  }
  std::printf("\n");

  // Phase 2: speculative parallel targeting, serial vs `lanes` lanes.
  const unsigned lanes = options.threads ? options.threads : 4;
  const unsigned hardware = util::ParallelConfig{}.resolved();
  std::printf(
      "Speculative targeting phase (lanes=%u, hardware_concurrency=%u)\n\n",
      lanes, hardware);
  struct TargetingRow {
    std::string name;
    std::size_t faults = 0;
    TargetSample serial;
    TargetSample parallel;
    bool identical = false;
  };
  std::vector<TargetingRow> targeting;
  bool targeting_ok = true;
  double serial_wall_total = 0.0;
  double lanes_wall_total = 0.0;
  for (const std::string& name : names) {
    const auto c = bench::load_circuit(name);
    fault::FaultList tf = fault::collapse(c);
    if (tf.size() > max_faults) {
      tf.faults.resize(max_faults);
      tf.class_sizes.resize(max_faults);
    }
    TargetingRow row;
    row.name = name;
    row.faults = tf.size();
    row.serial =
        run_targeting(c, tf, 1, options.seed, backtracks, repeat);
    row.parallel =
        run_targeting(c, tf, lanes, options.seed, backtracks, repeat);
    row.identical = targeting_identical(row.serial.result,
                                        row.parallel.result);
    if (!row.identical) {
      targeting_ok = false;
      std::printf(
          "ERROR: %s lane targeting diverges from serial "
          "(tests %zu vs %zu, digest %016llx vs %016llx)\n",
          name.c_str(), row.serial.result.test_set.size(),
          row.parallel.result.test_set.size(),
          static_cast<unsigned long long>(row.serial.result.digests.tests),
          static_cast<unsigned long long>(
              row.parallel.result.digests.tests));
    }
    serial_wall_total += row.serial.wall_s;
    lanes_wall_total += row.parallel.wall_s;
    std::printf(
        "%-8s serial=%8.2fms  lanes(%u)=%8.2fms  x%.2f  spec=%ld "
        "committed=%ld discarded=%ld epochs=%ld lane_pool_builds=%ld "
        "wasted_evals=%ld  identity %s\n",
        name.c_str(), row.serial.wall_s * 1e3, lanes,
        row.parallel.wall_s * 1e3,
        row.parallel.wall_s > 0 ? row.serial.wall_s / row.parallel.wall_s
                                : 0.0,
        row.parallel.spec.speculated, row.parallel.spec.committed,
        row.parallel.spec.discarded, row.parallel.spec.epochs,
        row.parallel.spec.lane_pool_builds,
        row.parallel.spec.wasted_gate_evals, row.identical ? "OK" : "FAILED");
    targeting.push_back(std::move(row));
  }
  const double target_speedup =
      lanes_wall_total > 0 ? serial_wall_total / lanes_wall_total : 0.0;
  std::printf("\n");
  util::JsonWriter json(util::JsonWriter::Style::kPretty);
  json.begin_object();
  json.field("bench", "detengine");
  json.field("max_faults", max_faults);
  json.field("backtracks", backtracks);
  json.field("solutions", max_solutions);
  json.field("repeat", repeat);
  json.field("threads", lanes);
  json.field("hardware_concurrency", hardware);
  json.field("targeting_identical", targeting_ok);
  json.field("target_speedup", target_speedup);
  json.key("circuits").begin_array();
  for (const CircuitResult& cr : results) {
    json.begin_object();
    json.field("name", cr.name);
    json.field("faults", cr.faults);
    json.field("sampled", cr.sampled);
    json.key("results").begin_array();
    {
      const Sample& s = cr.sample;
      json.begin_object();
      json.field("engine", kEngineKey);
      json.field("wall_s", s.wall_s);
      json.field("decisions", s.decisions);
      json.field("backtracks", s.backtracks);
      json.field("gate_evals", s.gate_evals);
      json.field("events", s.events);
      json.field("evals_per_decision", s.evals_per_decision());
      json.field("decisions_per_s", s.decisions_per_s());
      json.field("solved", s.solved);
      json.field("untestable", s.untestable);
      json.field("model_builds", s.model_builds);
      json.field("model_acquires", s.model_acquires);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("targeting").begin_array();
  for (const TargetingRow& row : targeting) {
    json.begin_object();
    json.field("name", row.name);
    json.field("faults", row.faults);
    json.field("identical", row.identical);
    json.field("speedup", row.parallel.wall_s > 0
                              ? row.serial.wall_s / row.parallel.wall_s
                              : 0.0);
    json.key("rows").begin_array();
    for (const TargetSample* s : {&row.serial, &row.parallel}) {
      json.begin_object();
      json.field("lanes", s->lanes);
      json.field("wall_s", s->wall_s);
      json.field("detected", s->result.detected());
      json.field("vectors", s->result.test_set.size());
      json.field("speculated", s->spec.speculated);
      json.field("committed", s->spec.committed);
      json.field("discarded", s->spec.discarded);
      // Timing-dependent (how far a discarded lane ran before noticing the
      // cancel flag): report-only, never gated.
      json.field("wasted_gate_evals", s->spec.wasted_gate_evals);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  if (!json.write_file("BENCH_detengine.json")) {
    std::fprintf(stderr, "cannot write BENCH_detengine.json\n");
    return 1;
  }
  std::printf(
      "speculative targeting speedup (serial vs %u lanes): x%.2f%s\n", lanes,
      target_speedup,
      hardware < lanes ? " [hardware_concurrency below lane count]" : "");
  std::printf("wrote BENCH_detengine.json%s\n",
              targeting_ok ? "" : " (INCONSISTENT RESULTS)");
  return targeting_ok ? 0 : 1;
}
