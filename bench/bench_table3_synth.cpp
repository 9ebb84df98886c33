// Reproduces Table III: GA-HITEC vs HITEC on the synthesized circuits
// (Am2910 microprogram sequencer, 16-bit divider, 16-bit two's-complement
// multiplier, 8-bit parallel controller).
//
// The paper fixed the GA sequence lengths at 24 and 48 for passes 1 and 2 on
// these circuits; this harness does the same.  The headline result to
// reproduce: GA-HITEC beats HITEC on fault coverage for all four circuits
// (these are data-dominant designs where deterministic reverse-time
// justification struggles).
//
// Usage: bench_table3_synth [--time-scale=X] [--full] [names...]
//   Default uses scaled-down widths (mult8/div8) to keep the default bench
//   sweep fast; --full runs the paper's 16-bit widths.
#include <cstdio>

#include "common.h"
#include "gen/divider.h"
#include "gen/multiplier.h"

int main(int argc, char** argv) {
  using namespace gatpg;
  std::vector<std::string> names;
  const bench::BenchOptions options =
      bench::parse_options(argc, argv, &names);

  std::printf("Table III: synthesized circuits (time scale %g, GA sequence "
              "lengths 24/48)\n",
              options.time_scale);
  bench::print_comparison_banner();
  bench::JsonReport json;
  bench::JsonReport* json_ptr = options.json_path.empty() ? nullptr : &json;
  auto table = bench::make_comparison_table();

  auto run_named = [&](const netlist::Circuit& c) {
    const auto row =
        bench::run_comparison(c, options, {{24u, 48u}}, json_ptr);
    bench::add_comparison_rows(table, row);
  };

  if (!names.empty()) {
    for (const auto& name : names) run_named(bench::load_circuit(name));
  } else {
    run_named(bench::load_circuit("am2910"));
    if (options.full) {
      run_named(bench::load_circuit("div16"));
      run_named(bench::load_circuit("mult16"));
    } else {
      run_named(gen::make_divider(8, "div8"));
      run_named(gen::make_multiplier(8, "mult8"));
    }
    run_named(bench::load_circuit("pcont2"));
  }
  table.print();
  std::printf(
      "\nShape check (paper): GA-HITEC detects more faults than HITEC on "
      "all rows,\nusually in less time.\n");
  bench::finish_json(options, json);
  return 0;
}
