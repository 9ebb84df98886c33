// Example: build a circuit programmatically, run both test generators on
// it, and compare — the workflow for applying the library to your own
// designs rather than the bundled benchmarks.
//
// The design here is a small bus arbiter with a 4-bit grant timer: a
// control/datapath mix small enough to read, sequential enough that state
// justification actually matters.
#include <cstdio>

#include "fault/grading.h"
#include "gen/datapath.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/bench_io.h"
#include "netlist/depth.h"

namespace {

gatpg::netlist::Circuit build_arbiter() {
  using namespace gatpg;
  using netlist::NodeId;
  netlist::CircuitBuilder b;
  gen::DatapathBuilder d(b);

  const NodeId reset = b.add_input("reset");
  const NodeId req_a = b.add_input("req_a");
  const NodeId req_b = b.add_input("req_b");
  const gen::Bus limit = d.input_bus("limit", 4);

  const NodeId grant_a = b.add_dff("grant_a");
  const NodeId grant_b = b.add_dff("grant_b");
  const gen::Bus timer = d.register_bus("timer", 4);

  const NodeId nreset = d.inv("nreset", reset);
  const NodeId timer_zero = d.is_zero("tz", timer);
  const NodeId busy = d.or2("busy", grant_a, grant_b);
  const NodeId idle = d.inv("idle", busy);
  const NodeId expire = d.and2("expire", busy, timer_zero);

  // Fixed priority: A over B; grants hold until the timer expires.
  const NodeId take_a = d.and2("take_a", req_a, idle);
  const NodeId take_b =
      d.and2("take_b", d.and2("tb0", req_b, idle), d.inv("tb1", req_a));
  const NodeId hold_a =
      d.and2("hold_a", grant_a, d.inv("ha0", expire));
  const NodeId hold_b =
      d.and2("hold_b", grant_b, d.inv("hb0", expire));
  b.set_dff_input(grant_a,
                  d.and2("ga_n", d.or2("ga_o", take_a, hold_a), nreset));
  b.set_dff_input(grant_b,
                  d.and2("gb_n", d.or2("gb_o", take_b, hold_b), nreset));

  // timer' = on new grant: limit; while busy: timer - 1; else hold.
  const NodeId load = d.or2("load", take_a, take_b);
  gen::Bus ones(4);
  for (int i = 0; i < 4; ++i) ones[i] = d.const1("one" + std::to_string(i));
  const auto dec = d.adder("dec", timer, ones, d.const0("cin"));
  const gen::Bus run = d.mux2("run", busy, dec.sum, timer);
  const gen::Bus next = d.mux2("tn", load, limit, run);
  d.connect_register(timer, next);

  b.mark_output(grant_a);
  b.mark_output(grant_b);
  b.mark_output(d.buf("busy_out", busy));
  return std::move(b).build("arbiter");
}

}  // namespace

int main() {
  using namespace gatpg;
  const auto circuit = build_arbiter();
  const auto stats = netlist::stats_of(circuit);
  std::printf("built %s: %zu PIs, %zu FFs, %zu gates, sequential depth %u\n",
              circuit.name().c_str(), stats.inputs, stats.flip_flops,
              stats.gates, netlist::sequential_depth(circuit));

  // The circuit can be exported to the ISCAS89 .bench format for other
  // tools:
  std::printf("\n--- .bench export (first lines) ---\n");
  const std::string bench = netlist::write_bench(circuit);
  std::fwrite(bench.data(), 1, std::min<std::size_t>(bench.size(), 300),
              stdout);
  std::printf("...\n\n");

  for (const bool use_ga : {true, false}) {
    hybrid::HybridConfig config;
    config.schedule = use_ga ? session::PassSchedule::ga_hitec(0.05)
                             : session::PassSchedule::hitec(0.05);
    config.seed = 2024;
    const auto result = hybrid::HybridAtpg(circuit, config).run();
    const auto report = fault::grade_sequence(circuit, result.test_set);
    std::printf("%-8s detected %zu/%zu (untestable %zu) with %zu vectors "
                "[independent grading: %zu]\n",
                use_ga ? "GA-HITEC" : "HITEC", result.detected(),
                result.total_faults, result.untestable(),
                result.test_set.size(), report.detected);
  }
  return 0;
}
