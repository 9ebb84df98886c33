// End-to-end GA-HITEC benchmark.
//
// Each workload is a closed loop of one caller: complete ATPG runs through
// session::Session::run + hybrid::HybridEngine (or, for `grade`, complete
// grading sweeps through fault::FaultSimulator::run), back to back, until
// --seconds have elapsed.  Every schedule is wall-clock-free, so each
// quality number is a pure function of (circuit, schedule, seed).
//
//   gabench --workload NAME --seed N --seconds S --trace 0|1
//           [--circuit NAME] [--quick] [--commit ID] [--trace-out FILE]
//
// Times are reported in reference-host seconds (see HostSpeed): each timed
// operation is bracketed by a fixed calibration kernel and scaled by how
// fast the host ran that kernel, and runs during which the hypervisor stole
// more than kMaxStealShare of the host's busy CPU time are left out of the
// timings.  Raw wall and CPU times are printed on stdout as well.
//
// --trace 0 times untraced runs and prints the end-to-end metrics.
// --trace 1 pairs each untraced run with a traced replay (trace.h) of the
// same seed, checks that both reach the same digests, and prints the
// per-layer metrics.  The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Every run is re-graded on a fresh FaultSimulator; at the default seed the
// first run must also reproduce the pinned digests and counters below.  Any
// miss counts as a failed run and makes the exit code nonzero.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "gen/registry.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/depth.h"
#include "session/session.h"
#include "trace.h"
#include "util/logging.h"
#include "util/rng.h"

namespace {

using namespace gatpg;
using gabench::Span;
using gabench::Tracer;

constexpr std::uint64_t kDefaultSeed = 1;

struct Workload {
  const char* name;
  const char* circuit;
  fault::FaultUniverse universe;
  bool grade;         // fault-grading sweep instead of an ATPG run
  bool ga_schedule;   // GA, GA, deterministic (else deterministic twice)
  unsigned threads;   // fault-sim / GA worker threads
  unsigned lanes;     // speculative targeting lanes
  unsigned stride;    // ATPG: target every stride-th collapsed fault
  std::size_t vectors;  // grade: sequence length
  std::size_t quality_runs;  // quality metrics average the first N runs
};

// Sizes are chosen so one run takes about a second or less on a 4-core
// x86-64 box, giving 20-60 timed runs per 25-second measurement; the
// quality metrics average a fixed number of runs so they compare exactly.
const Workload kWorkloads[] = {
    {"ga_hitec", "g526", fault::FaultUniverse::kStuckAt, false, true, 1, 1, 12,
     0, 24},
    {"hitec_lanes", "am2910", fault::FaultUniverse::kStuckAt, false, false, 1,
     4, 6, 0, 40},
    {"transition", "am2910", fault::FaultUniverse::kTransition, false, true, 1,
     1, 12, 0, 10},
    {"grade", "g5378", fault::FaultUniverse::kStuckAt, true, false, 4, 1, 1,
     800, 16},
};

constexpr std::size_t kGradeCommit = 16;  // vectors per FaultSimulator::run
// Set-up is timed kSetupBlocks x kSetupBlockReps times, each block between
// two host-speed readings.
constexpr int kSetupBlocks = 10;
constexpr int kSetupBlockReps = 10;
// Runs with a larger share of the host's busy CPU time stolen by the
// hypervisor are left out of the timings (they still count for correctness).
constexpr double kMaxStealShare = 0.10;
// Timed runs a measurement needs; if steal leaves fewer by --seconds, the
// measurement goes on up to kMaxOvertime x --seconds, and then times every
// run.
constexpr std::size_t kMinTimedRuns = 10;
constexpr double kMaxOvertime = 1.2;

/// Results the first run at the default seed must reproduce bit for bit.
struct Pin {
  const char* workload;
  std::uint64_t faults_digest, tests_digest, store_digest;
  std::size_t detected, untestable, vectors;
  std::uint64_t sim_gate_evals, sim_good_gate_evals, sim_repacks;
};
const Pin kPins[] = {
    {"ga_hitec", 0xd4c20943d1df0b18, 0x5565765f56fa95bf, 0x2caff5aa8a696e59,
     46, 15, 73, 19551, 9170, 0},
    {"hitec_lanes", 0x5117fd88ae178ac2, 0x7f5c36bb2b4e9b8d, 0x408089768488f4bc,
     294, 7, 82, 47793, 21840, 0},
    {"transition", 0x554185abc8f2afc2, 0xae5d0a6283b364cc, 0x1745b041e689fc78,
     243, 0, 307, 42024, 76902, 0},
    {"grade", 0, 0, 0, 3117, 0, 800, 6489826, 666745, 0},
};

struct Options {
  const Workload* workload = nullptr;
  std::string circuit;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string commit = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "gabench: %s\n", message.c_str());
  std::fprintf(stderr, "valid workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        const std::string name = value();
        for (const Workload& w : kWorkloads) {
          if (name == w.name) o.workload = &w;
        }
        if (!o.workload) usage_error("unknown workload '" + name + "'");
      } else if (a == "--circuit") {
        o.circuit = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--quick") {
        o.quick = true;
      } else if (a == "--commit") {
        o.commit = value();
      } else if (a == "--trace-out") {
        o.trace_out = value();
      } else {
        usage_error("unknown argument '" + a + "'");
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + a);
    }
  }
  if (!o.workload) usage_error("--workload is required");
  if (!(o.seconds > 0)) usage_error("--seconds must be positive");
  if (o.circuit.empty()) o.circuit = o.workload->circuit;
  return o;
}

// -- Measurement helpers ----------------------------------------------------

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// "median=.. p62=.. (n=..)": the tail is the highest whole percentile with
/// at least ten samples beyond it, shown when it lies above the median.
std::string timing_summary(const std::vector<double>& v) {
  char buf[160];
  const double n = static_cast<double>(v.size());
  int tail_p = v.empty() ? 0 : static_cast<int>(100.0 * (1.0 - 10.0 / n));
  while (tail_p > 50 && n * (1.0 - tail_p / 100.0) < 10.0) --tail_p;
  if (tail_p > 50) {
    std::snprintf(buf, sizeof buf, "median=%.6g p%d=%.6g (n=%zu)", median(v),
                  tail_p, quantile(v, tail_p / 100.0), v.size());
  } else {
    std::snprintf(buf, sizeof buf,
                  "median=%.6g (n=%zu; too few samples for a tail)",
                  median(v), v.size());
  }
  return buf;
}

/// The benchmark's yardstick for host speed.  On a shared virtual machine
/// the speed of the same work drifts by a quarter or more within minutes
/// (neighbours contend for caches and memory), and every timing of the
/// program drifts with it.  A fixed kernel — a dependent random walk through
/// a 256 KiB table, which belongs to the benchmark and never changes with
/// the program — runs before the first and after every timed operation.
/// An operation's times are scaled by kReferenceS over the mean of the two
/// kernel times around it: they read as seconds on a host that runs the
/// kernel in kReferenceS (a 4-vCPU x86-64 KVM guest on a quiet moment).
class HostSpeed {
 public:
  static constexpr double kReferenceS = 0.028;

  HostSpeed() : next_(std::size_t{1} << 16) {
    for (std::size_t i = 0; i < next_.size(); ++i) {
      next_[i] = static_cast<std::uint32_t>(i);
    }
    // Sattolo's shuffle: one cycle through the whole table.
    util::Rng rng(0x5eed);
    for (std::size_t i = next_.size() - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.below(i)]);
    }
    last_s_ = kernel_s();
  }

  /// Runs the kernel again; returns the scale for what was timed since the
  /// previous reading.
  double scale_since_last() {
    const double now_s = kernel_s();
    const double scale = kReferenceS / (0.5 * (last_s_ + now_s));
    last_s_ = now_s;
    return scale;
  }

 private:
  double kernel_s() const {
    const auto start = std::chrono::steady_clock::now();
    std::uint32_t at = 0;
    std::uint64_t acc = 0;
    for (int k = 0; k < 3'000'000; ++k) {
      at = next_[at];
      acc += (at & 1) ? at * 3u : at >> 1;
      if (acc & 0x100) acc ^= 0x9e3779b9;
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
    return seconds_since(start);
  }

  std::vector<std::uint32_t> next_;
  double last_s_ = 0;
};

/// Aggregate busy and stolen CPU ticks of the host, from /proc/stat; zeros
/// where it cannot be read.
struct CpuTicks {
  double busy = 0;
  double steal = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string label;
  // user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {};
  f >> label;
  for (auto& x : v) f >> x;
  if (!f || label != "cpu") return {};
  return {static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6] + v[7]),
          static_cast<double>(v[7])};
}

/// Share of the host's busy CPU time between `a` and `b` that was stolen.
double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const double busy = b.busy - a.busy;
  return busy > 0 ? (b.steal - a.steal) / busy : 0.0;
}

/// Times of one operation: raw wall and CPU seconds, the host-speed scale
/// around it, and the share of host CPU time stolen meanwhile.
struct Timing {
  double wall_s = 0;
  double cpu_s = 0;
  double scale = 1;
  double steal = 0;
  double run_s() const { return wall_s * scale; }
  double cpu_ref_s() const { return cpu_s * scale; }
};

template <class Op>
Timing timed(HostSpeed& host, Op&& op) {
  const CpuTicks ticks0 = cpu_ticks();
  const auto start = std::chrono::steady_clock::now();
  const double cpu0 = cpu_now();
  op();
  Timing t;
  t.cpu_s = cpu_now() - cpu0;
  t.wall_s = seconds_since(start);
  t.steal = steal_share(ticks0, cpu_ticks());
  t.scale = host.scale_since_last();
  return t;
}

/// Seed of the i-th run of a measurement: run 0 uses the benchmark seed
/// itself, later runs splitmix-derived ones.
std::uint64_t run_seed(std::uint64_t base, std::size_t i) {
  if (i == 0) return base;
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// -- Workload set-up --------------------------------------------------------

struct Prepared {
  netlist::Circuit circuit;
  fault::FaultList faults;
  unsigned depth = 0;
};

std::unique_ptr<Prepared> prepare(const Workload& w, const Options& o) {
  auto p = std::make_unique<Prepared>(
      Prepared{gen::make_circuit(o.circuit), {}, 0});
  const fault::FaultList all = fault::collapse(p->circuit, w.universe);
  const unsigned stride = w.stride * (o.quick && !w.grade ? 4u : 1u);
  for (std::size_t i = 0; i < all.size(); i += stride) {
    p->faults.faults.push_back(all.faults[i]);
    p->faults.class_sizes.push_back(all.class_sizes[i]);
  }
  p->depth = netlist::sequential_depth(p->circuit);
  return p;
}

hybrid::HybridConfig atpg_config(const Workload& w, std::uint64_t seed) {
  hybrid::HybridConfig cfg;
  cfg.fault_model = w.universe;
  cfg.seed = seed;
  cfg.parallel.threads = w.threads;
  cfg.state_store.enabled = true;
  cfg.target_parallel.lanes = w.lanes;
  // Four alternative forward solutions per fault and pass, as in
  // bench_faults: bounds the cost of a GA-hard fault, which keeps the
  // run-to-run spread of one run's wall time small.
  cfg.max_solutions_per_fault = 4;
  cfg.schedule.passes.clear();
  session::PassConfig pass;
  pass.time_limit_s = 0.0;
  pass.pass_budget_s = 0.0;
  if (w.ga_schedule) {
    // Table I shape: GA (pop 64, 4 gens, 4x depth), GA (pop 128, 8 gens,
    // 8x depth), then deterministic justification.
    pass.mode = session::JustifyMode::kGenetic;
    pass.max_backtracks = 200;
    pass.ga_population = 64;
    pass.ga_generations = 4;
    pass.seq_len_multiplier = 4.0;
    cfg.schedule.passes.push_back(pass);
    pass.ga_population = 128;
    pass.ga_generations = 8;
    pass.seq_len_multiplier = 8.0;
    cfg.schedule.passes.push_back(pass);
    pass.mode = session::JustifyMode::kDeterministic;
    pass.max_backtracks = 2000;
    cfg.schedule.passes.push_back(pass);
  } else {
    // HITEC baseline: deterministic justification, escalating backtracks.
    pass.mode = session::JustifyMode::kDeterministic;
    pass.max_backtracks = 200;
    cfg.schedule.passes.push_back(pass);
    pass.max_backtracks = 2000;
    cfg.schedule.passes.push_back(pass);
  }
  return cfg;
}

session::SessionConfig session_config(const hybrid::HybridConfig& cfg) {
  session::SessionConfig s;
  s.fault_model = cfg.fault_model;
  s.faultsim = cfg.faultsim;
  s.faultsim.parallel = cfg.parallel;
  s.state_store = cfg.state_store;
  s.target_parallel = cfg.target_parallel;
  return s;
}

fault::FaultSimConfig grade_config(const Workload& w) {
  fault::FaultSimConfig cfg;
  cfg.parallel.threads = w.threads;
  return cfg;
}

/// The grading input: a fixed pseudo-random sequence generated from `seed`.
sim::Sequence grade_sequence(const netlist::Circuit& c, std::size_t vectors,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  sim::Sequence seq(vectors, sim::Vector3(c.primary_inputs().size()));
  for (auto& vec : seq) {
    for (auto& v : vec) v = rng.bit() ? sim::V3::k1 : sim::V3::k0;
  }
  return seq;
}

/// One complete set-up: circuit build, fault collapse, and construction of
/// the session + engine (ATPG) or the fault simulator (grade).
double time_setup(const Workload& w, const Options& o) {
  const auto start = std::chrono::steady_clock::now();
  const auto p = prepare(w, o);
  if (w.grade) {
    const fault::FaultSimulator fsim(p->circuit, p->faults.faults,
                                     grade_config(w));
  } else {
    const hybrid::HybridConfig cfg = atpg_config(w, o.seed);
    const session::Session s(p->circuit, p->faults, session_config(cfg));
    util::Rng rng(cfg.seed);
    const hybrid::HybridEngine engine(p->circuit, cfg, p->depth, rng);
  }
  return seconds_since(start);
}

// -- One measured operation -------------------------------------------------

struct RunResult {
  Timing time;
  std::size_t faults = 0;
  std::size_t detected = 0;
  std::size_t untestable = 0;
  std::size_t vectors = 0;
  session::SessionResult::Digests digests;
  fault::SimStats sim;
  // ATPG: the session's engine counters; grade: committed_tests counts the
  // FaultSimulator::run commits.
  session::EngineCounters counters;
  hybrid::SpecStats spec;
  gabench::TraceCounts trace;  // traced runs only
  std::vector<double> pass_end_s;  // session clock at the end of each pass
  std::string error;               // empty = every check passed
};

/// The re-grade check: a fresh fault simulator over the final test set must
/// detect exactly the faults the run claims detected.
std::string regrade(const Prepared& p, const session::SessionResult& r) {
  fault::FaultSimulator fresh(p.circuit, p.faults.faults);
  fresh.run(r.test_set);
  for (std::size_t i = 0; i < r.fault_state.size(); ++i) {
    const bool claimed = r.fault_state[i] == session::FaultStatus::kDetected;
    if (claimed != (fresh.detected()[i] != 0)) {
      return "re-grade disagrees on fault " + std::to_string(i) +
             (claimed ? " (claimed detected)" : " (claimed not detected)");
    }
  }
  return {};
}

/// One ATPG run on `lanes` speculative lanes; traced through TracedEngine
/// when `tracer` is set.
RunResult run_atpg(const Workload& w, const Prepared& p, std::uint64_t seed,
                   unsigned lanes, HostSpeed& host, Tracer* tracer) {
  hybrid::HybridConfig cfg = atpg_config(w, seed);
  cfg.target_parallel.lanes = lanes;
  RunResult r;
  session::SessionResult result;
  {
    // The session and engine end before the checks below, so the peak
    // resident memory is the run's own.
    session::Session s(p.circuit, p.faults, session_config(cfg));
    if (tracer) {
      gabench::PassSpans passes(*tracer);
      s.set_observer(&passes);
      gabench::TracedEngine engine(p.circuit, cfg, p.depth, *tracer);
      r.time = timed(host, [&] {
        const Tracer::Scope run(*tracer, "session.run");
        result = s.run(engine, cfg.schedule);
      });
      r.trace = engine.counts();
      s.set_observer(nullptr);
    } else {
      util::Rng rng(cfg.seed);
      hybrid::HybridEngine engine(p.circuit, cfg, p.depth, rng);
      r.time = timed(host, [&] { result = s.run(engine, cfg.schedule); });
      r.spec = engine.spec_stats();
    }
    r.sim = s.simulator().stats();
  }
  r.faults = result.total_faults;
  r.detected = result.detected();
  r.untestable = result.untestable();
  r.vectors = result.test_set.size();
  r.digests = result.digests;
  r.counters = result.counters;
  for (const session::PassOutcome& po : result.passes) {
    r.pass_end_s.push_back(po.time_s);
  }
  r.error = regrade(p, result);
  return r;
}

RunResult run_grade(const Workload& w, const Prepared& p, std::size_t vectors,
                    std::uint64_t seed, HostSpeed& host, Tracer* tracer,
                    bool check) {
  const sim::Sequence seq = grade_sequence(p.circuit, vectors, seed);
  RunResult r;
  std::vector<char> detected;
  {
    // The simulator ends before the serial check below (peak memory).
    fault::FaultSimulator fsim(p.circuit, p.faults.faults, grade_config(w));
    r.time = timed(host, [&] {
      std::optional<Tracer::Scope> run;
      if (tracer) run.emplace(*tracer, "session.run");
      for (std::size_t at = 0; at < seq.size(); at += kGradeCommit) {
        const sim::Sequence chunk(
            seq.begin() + static_cast<std::ptrdiff_t>(at),
            seq.begin() + static_cast<std::ptrdiff_t>(
                              std::min(seq.size(), at + kGradeCommit)));
        std::optional<Tracer::Scope> commit;
        if (tracer) commit.emplace(*tracer, "session.commit");
        fsim.run(chunk);
      }
    });
    r.detected = fsim.detected_count();
    r.sim = fsim.stats();
    detected = fsim.detected();
  }
  r.faults = p.faults.size();
  r.vectors = seq.size();
  r.counters.committed_tests =
      static_cast<long>((seq.size() + kGradeCommit - 1) / kGradeCommit);
  if (check) {
    // Commit-by-commit on the worker pool must equal one serial sweep.
    fault::FaultSimulator serial(p.circuit, p.faults.faults);
    serial.run(seq);
    if (serial.detected() != detected) {
      r.error = "threaded 16-vector commits disagree with a serial sweep";
    }
  }
  return r;
}

std::string check_pin(const Workload& w, const RunResult& r) {
  for (const Pin& pin : kPins) {
    if (std::string(pin.workload) != w.name) continue;
    const bool ok =
        (w.grade || (r.digests.faults == pin.faults_digest &&
                     r.digests.tests == pin.tests_digest &&
                     r.digests.store == pin.store_digest)) &&
        r.detected == pin.detected && r.untestable == pin.untestable &&
        r.vectors == pin.vectors && r.sim.gate_evals == pin.sim_gate_evals &&
        r.sim.good_gate_evals == pin.sim_good_gate_evals &&
        r.sim.groups_repacked == pin.sim_repacks;
    if (!ok) return "result at the default seed differs from the pinned one";
  }
  return {};
}

void print_run(const RunResult& r, std::size_t i, std::uint64_t seed,
               const char* kind) {
  std::printf(
      "run %zu %s seed=%llu run_s=%.6f cpu_s=%.6f (raw wall %.6f cpu %.6f "
      "scale %.4f steal %.3f) det=%zu unt=%zu/%zu vec=%zu "
      "digests=%016llx/%016llx/%016llx sim=%llu/%llu/%llu%s%s\n",
      i, kind, static_cast<unsigned long long>(seed), r.time.run_s(),
      r.time.cpu_ref_s(), r.time.wall_s, r.time.cpu_s, r.time.scale,
      r.time.steal, r.detected, r.untestable, r.faults, r.vectors,
      static_cast<unsigned long long>(r.digests.faults),
      static_cast<unsigned long long>(r.digests.tests),
      static_cast<unsigned long long>(r.digests.store),
      static_cast<unsigned long long>(r.sim.gate_evals),
      static_cast<unsigned long long>(r.sim.good_gate_evals),
      static_cast<unsigned long long>(r.sim.groups_repacked),
      r.error.empty() ? "" : " FAILED: ", r.error.c_str());
  if (!r.pass_end_s.empty()) {
    std::printf("  pass ends (s):");
    for (double t : r.pass_end_s) std::printf(" %.4f", t);
    std::printf("\n");
  }
}

// -- Result line --------------------------------------------------------------

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const char* unit) {
    items.push_back({name, {value, unit}});
  }
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    const auto& [name, vu] = m.items[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -- Per-layer aggregation of traced runs ------------------------------------

struct LayerTimes {
  std::map<std::string, double> self_s;  // summed self time per span name
  std::vector<double> target_ms;
  std::vector<double> pass_s[3];
  double root_s = 0;
};

/// Adds the spans from index `from` on, their durations multiplied by the
/// run's host-speed `scale`.
void aggregate(const std::vector<Span>& spans, std::size_t from, double scale,
               LayerTimes& out) {
  std::vector<std::int64_t> child_ns(spans.size() - from, 0);
  for (std::size_t i = from; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= static_cast<int>(from)) {
      child_ns[static_cast<std::size_t>(s.parent) - from] +=
          s.end_ns - s.start_ns;
    }
  }
  std::size_t pass = 0;
  for (std::size_t i = from; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur =
        scale * 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    out.self_s[s.name] +=
        dur - scale * 1e-9 * static_cast<double>(child_ns[i - from]);
    const std::string name = s.name;
    if (name == "session.target") out.target_ms.push_back(dur * 1e3);
    if (name == "session.pass" && pass < 3) out.pass_s[pass++].push_back(dur);
    if (s.parent < 0) out.root_s += dur;
  }
}

void print_env(const Options& o) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  std::printf(
      "env: {\"workload\": \"%s\", \"circuit\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"quick\": %d, \"nproc\": %d, "
      "\"hardware_concurrency\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"commit\": \"%s\"}\n",
      o.workload->name, o.circuit.c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
      o.quick ? 1 : 0, nproc, std::thread::hardware_concurrency(),
      GABENCH_BUILD_TYPE, __VERSION__, o.commit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const Workload& w = *o.workload;
  util::set_log_level(util::LogLevel::kWarn);
  print_env(o);
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "gabench: refusing to time an unoptimised build; configure "
               "with -DCMAKE_BUILD_TYPE=Release\n");
  return 3;
#endif

  // Set-up, many times; the last prepared instance serves the runs.
  HostSpeed host;
  std::vector<double> setup_samples;
  std::unique_ptr<Prepared> prep;
  try {
    for (int b = 0; b < kSetupBlocks; ++b) {
      std::vector<double> block;
      for (int i = 0; i < kSetupBlockReps; ++i) block.push_back(time_setup(w, o));
      const double scale = host.scale_since_last();
      for (double t : block) setup_samples.push_back(t * scale);
    }
    prep = prepare(w, o);
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "gabench: unknown circuit '%s'; valid circuits:",
                 o.circuit.c_str());
    for (const std::string& n : gen::registry_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const bool pinned = o.seed == kDefaultSeed && !o.quick &&
                      o.circuit == w.circuit;
  std::printf("workload %s: %s, %zu %s faults, depth %u, setup %s s\n",
              w.name, o.circuit.c_str(), prep->faults.size(),
              fault::universe_name(w.universe), prep->depth,
              timing_summary(setup_samples).c_str());

  const std::size_t grade_vectors = o.quick ? w.vectors / 8 : w.vectors;
  const std::size_t min_runs = o.quick ? 1 : (o.trace ? 1 : w.quality_runs);
  const std::size_t min_timed = o.quick || o.trace ? 1 : kMinTimedRuns;
  auto run_one = [&](std::uint64_t seed, unsigned lanes, Tracer* tracer,
                     bool check) {
    RunResult r;
    try {
      r = w.grade ? run_grade(w, *prep, grade_vectors, seed, host, tracer,
                              check)
                  : run_atpg(w, *prep, seed, lanes, host, tracer);
    } catch (const std::exception& e) {
      r.error = std::string("exception: ") + e.what();
    }
    return r;
  };

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<RunResult> runs;     // untraced runs that passed every check
  std::vector<RunResult> timed_runs;  // those of them with little steal
  std::vector<RunResult> twins;    // trace mode: the untraced run of each replay
  std::vector<RunResult> serial;   // trace mode: its untraced serial baseline
  std::vector<RunResult> traced;   // trace mode: traced replays
  Tracer tracer;
  LayerTimes layers;

  const auto begin = std::chrono::steady_clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_since(begin);
    const bool timing_done =
        elapsed >= o.seconds && (timed_runs.size() >= min_timed ||
                                 elapsed >= kMaxOvertime * o.seconds);
    if ((timing_done && runs.size() >= min_runs) ||
        (failed > 0 && elapsed >= o.seconds)) {
      break;
    }
    const std::uint64_t seed = run_seed(o.seed, i);
    ++attempted;
    RunResult r = run_one(seed, w.lanes, nullptr, i == 0);
    if (r.error.empty() && i == 0 && pinned) r.error = check_pin(w, r);
    print_run(r, i, seed, "untraced");
    if (o.trace && r.error.empty()) {
      // The traced replay is serial, so on lane workloads its overhead is
      // taken against an untraced serial run of the same seed.
      RunResult base = w.lanes > 1 ? run_one(seed, 1, nullptr, false) : r;
      if (w.lanes > 1) print_run(base, i, seed, "untraced-serial");
      const std::size_t from = tracer.spans().size();
      RunResult t = run_one(seed, 1, &tracer, false);
      for (RunResult* x : {&base, &t}) {
        if (x->error.empty() &&
            (x->digests.faults != r.digests.faults ||
             x->digests.tests != r.digests.tests ||
             x->digests.store != r.digests.store ||
             x->detected != r.detected || x->vectors != r.vectors)) {
          x->error = "serial or traced replay diverges from the untraced run";
        }
      }
      print_run(t, i, seed, "traced");
      if (base.error.empty() && t.error.empty()) {
        aggregate(tracer.spans(), from, t.time.scale, layers);
        twins.push_back(r);
        serial.push_back(base);
        traced.push_back(t);
      } else {
        r.error = base.error.empty() ? t.error : base.error;
      }
    }
    if (r.error.empty()) {
      runs.push_back(r);
      if (r.time.steal <= kMaxStealShare) timed_runs.push_back(r);
    } else {
      ++failed;
    }
  }

  if (o.trace && !o.trace_out.empty() && !tracer.write_jsonl(o.trace_out)) {
    std::fprintf(stderr, "gabench: cannot write %s\n", o.trace_out.c_str());
  }

  std::printf("steal: %zu of %zu runs had more than %.0f%% of host CPU time "
              "stolen and are left out of the timings\n",
              runs.size() - timed_runs.size(), runs.size(),
              100.0 * kMaxStealShare);
  if (timed_runs.size() < min_timed) {
    std::printf("steal: too few runs below the steal limit; timing all %zu "
                "runs\n", runs.size());
    timed_runs = runs;
  }
  std::vector<double> run_s, cpu_s, wall_raw, cpu_raw, scales, resolved_rate,
      fv_rate;
  for (const RunResult& r : timed_runs) {
    run_s.push_back(r.time.run_s());
    cpu_s.push_back(r.time.cpu_ref_s());
    wall_raw.push_back(r.time.wall_s);
    cpu_raw.push_back(r.time.cpu_s);
    scales.push_back(r.time.scale);
    const double resolved = static_cast<double>(r.detected + r.untestable);
    resolved_rate.push_back(resolved / r.time.run_s());
    fv_rate.push_back(static_cast<double>(r.faults) *
                      static_cast<double>(r.vectors) / r.time.run_s());
  }
  std::printf("run_s %s\n", timing_summary(run_s).c_str());
  std::printf("cpu_s %s\n", timing_summary(cpu_s).c_str());
  std::printf("raw wall_s %s\n", timing_summary(wall_raw).c_str());
  std::printf("raw cpu_s %s\n", timing_summary(cpu_raw).c_str());
  std::printf("host-speed scale median=%.4f\n", median(scales));

  Metrics m;
  if (!o.trace) {
    std::vector<double> coverage, efficiency, vectors;
    for (std::size_t i = 0; i < std::min(runs.size(), w.quality_runs); ++i) {
      const RunResult& r = runs[i];
      const double n = static_cast<double>(r.faults);
      coverage.push_back(static_cast<double>(r.detected) / n);
      efficiency.push_back(static_cast<double>(r.detected + r.untestable) / n);
      vectors.push_back(static_cast<double>(r.vectors));
    }
    m.add("run_s", median(run_s), "s");
    m.add("cpu_s", median(cpu_s), "s");
    m.add("setup_s", median(setup_samples), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("resolved_per_s", median(resolved_rate), "faults/s");
    m.add("fault_vectors_per_s", median(fv_rate), "1/s");
    m.add("fault_coverage", mean(coverage), "ratio");
    m.add("fault_efficiency", mean(efficiency), "ratio");
    m.add("test_vectors", mean(vectors), "count");
  } else {
    // Per-run means over the traced replays and their untraced twins.  Work
    // counts come from the twin's EngineCounters; the traced engine adds
    // only the calls those do not count.
    const double n = static_cast<double>(std::max<std::size_t>(1, traced.size()));
    gabench::TraceCounts tc;
    session::EngineCounters ec;
    double traced_wall = 0, serial_wall = 0, untraced_wall = 0,
           untraced_cpu = 0, sim_gate = 0, sim_good = 0, sim_repacks = 0,
           sim_groups = 0, sim_skipped = 0, speculated = 0,
           spec_committed = 0, wasted = 0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const RunResult& t = traced[i];
      const RunResult& u = twins[i];
      tc.forward_calls += t.trace.forward_calls;
      tc.ga_evaluations += t.trace.ga_evaluations;
      tc.verify_calls += t.trace.verify_calls;
      ec += u.counters;
      traced_wall += t.time.run_s();
      serial_wall += serial[i].time.run_s();
      untraced_wall += u.time.wall_s;
      untraced_cpu += u.time.cpu_s;
      sim_gate += static_cast<double>(u.sim.gate_evals);
      sim_good += static_cast<double>(u.sim.good_gate_evals);
      sim_repacks += static_cast<double>(u.sim.groups_repacked);
      sim_groups += static_cast<double>(u.sim.group_vectors);
      sim_skipped += static_cast<double>(u.sim.group_vectors_skipped);
      speculated += static_cast<double>(u.spec.speculated);
      spec_committed += static_cast<double>(u.spec.committed);
      wasted += static_cast<double>(u.spec.wasted_gate_evals);
    }
    auto per_run = [&](long v) { return static_cast<double>(v) / n; };
    auto self = [&](const char* name) {
      const auto it = layers.self_s.find(name);
      return it == layers.self_s.end() ? 0.0 : it->second / n;
    };
    const state::StateStoreStats& st = ec.store;
    const double ga_s = self("hybrid.ga_justify");
    const double fwd_s = self("atpg.forward");
    const double just_s = self("atpg.justify");
    const double verify_s = self("fault.verify");
    const double commit_s = self("session.commit");
    const double state_s = self("state");
    const double layer_sum = ga_s + fwd_s + just_s + verify_s + commit_s + state_s;
    m.add("hybrid.ga_justify_calls", per_run(ec.ga_invocations), "count");
    m.add("hybrid.ga_justify_self_s", ga_s, "s");
    m.add("hybrid.ga_evaluations", per_run(tc.ga_evaluations), "count");
    m.add("hybrid.ga_evals_per_s", ratio(per_run(tc.ga_evaluations), ga_s),
          "1/s");
    m.add("hybrid.ga_success_ratio",
          ratio(ec.ga_successes, ec.ga_invocations), "ratio");
    m.add("atpg.forward_calls", per_run(tc.forward_calls), "count");
    m.add("atpg.forward_self_s", fwd_s, "s");
    m.add("atpg.forward_solutions", per_run(ec.forward_solutions), "count");
    m.add("atpg.justify_calls", per_run(ec.det_justify_calls), "count");
    m.add("atpg.justify_self_s", just_s, "s");
    m.add("atpg.justify_success_ratio",
          ratio(ec.det_justify_successes, ec.det_justify_calls), "ratio");
    m.add("atpg.gate_evals", per_run(ec.det_gate_evals), "count");
    m.add("atpg.backtracks", per_run(ec.det_backtracks), "count");
    m.add("atpg.gate_evals_per_s",
          ratio(per_run(ec.det_gate_evals), fwd_s + just_s), "1/s");
    m.add("atpg.model_builds", per_run(ec.det_model_builds), "count");
    m.add("atpg.model_acquires", per_run(ec.det_model_acquires), "count");
    m.add("hybrid.lanes_speculated", speculated / n, "count");
    m.add("hybrid.lanes_commit_ratio", ratio(spec_committed, speculated),
          "ratio");
    m.add("hybrid.lanes_wasted_gate_evals", wasted / n, "count");
    m.add("fault.verify_calls", per_run(tc.verify_calls), "count");
    m.add("fault.verify_self_s", verify_s, "s");
    m.add("fault.verify_reject_ratio",
          ratio(ec.verify_failures, tc.verify_calls), "ratio");
    m.add("session.commit_calls", per_run(ec.committed_tests), "count");
    m.add("session.commit_self_s", commit_s, "s");
    m.add("fault.sim_gate_evals", sim_gate / n, "count");
    m.add("fault.sim_good_gate_evals", sim_good / n, "count");
    m.add("fault.sim_skip_rate", ratio(sim_skipped, sim_groups), "ratio");
    m.add("fault.sim_repacks", sim_repacks / n, "count");
    m.add("fault.sim_gate_evals_per_s", ratio(sim_gate / n, commit_s), "1/s");
    m.add("state.self_s", state_s, "s");
    m.add("state.seq_hit_ratio",
          ratio(st.seq_hits, st.seq_hits + st.seq_misses), "ratio");
    m.add("state.unjust_hit_ratio",
          ratio(st.unjust_hits, st.unjust_hits + st.unjust_misses), "ratio");
    m.add("state.forward_cache_hits", per_run(st.forward_cache_hits), "count");
    m.add("state.ga_seeds_served", per_run(st.ga_seeds_served), "count");
    for (int k = 0; k < 3; ++k) {
      m.add("session.pass" + std::to_string(k + 1) + "_s",
            layers.pass_s[k].empty() ? 0.0 : mean(layers.pass_s[k]), "s");
    }
    m.add("session.targets", per_run(ec.targeted), "count");
    m.add("session.aborted", per_run(ec.aborted_faults), "count");
    m.add("session.target_p50_ms", quantile(layers.target_ms, 0.5), "ms");
    m.add("session.target_p99_ms", quantile(layers.target_ms, 0.99), "ms");
    m.add("util.parallel_utilization", ratio(untraced_cpu, untraced_wall),
          "ratio");
    m.add("trace.overhead_s", (traced_wall - serial_wall) / n, "s");
    m.add("trace.unattributed_s", layers.root_s / n - layer_sum, "s");
    m.add("trace.runs", static_cast<double>(traced.size()), "count");

    const double wall = layers.root_s / n;
    std::printf("layer shares of traced wall time (%.6f s per run):\n", wall);
    for (const auto& [name, s] :
         {std::pair{"hybrid.ga_justify", ga_s}, {"atpg.justify", just_s},
          {"atpg.forward", fwd_s}, {"fault.verify", verify_s},
          {"session.commit", commit_s}, {"state", state_s},
          {"unattributed", wall - layer_sum}}) {
      std::printf("  %-20s %10.6f s  %5.1f%%\n", name, s,
                  100.0 * ratio(s, wall));
    }
  }
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}
