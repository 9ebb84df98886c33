// Example/utility: export any registry circuit as an ISCAS89 .bench file,
// read a .bench file and print its profile, or bulk-ingest a directory of
// .bench files — the interchange path for using this library alongside
// other ATPG tools.
//
//   ./bench_io_tool export <circuit-name> [out.bench]
//   ./bench_io_tool info <file.bench>
//   ./bench_io_tool ingest <dir>
//   ./bench_io_tool list
//
// `ingest` loads every .bench file in the directory, round-trips it through
// write_bench -> parse_bench (the canonical writer makes textual equality a
// structural identity check), and runs a short fault-simulation sanity pass
// over both fault universes, cross-checking the packed session simulator
// (FaultSimulator::run) against per-fault single-machine checks
// (FaultSimulator::would_detect_from from power-up).  Exit status is nonzero
// if any file fails — the CI ingestion smoke runs this over the exported
// registry circuits.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "gen/registry.h"
#include "netlist/bench_io.h"
#include "netlist/depth.h"
#include "util/rng.h"

namespace {

/// One file's ingestion check; throws on any mismatch.
void ingest_one(const std::string& path) {
  using namespace gatpg;
  const netlist::Circuit c = netlist::load_bench_file(path);
  const std::string text = netlist::write_bench(c);
  const netlist::Circuit again = netlist::parse_bench_string(text, c.name());
  if (netlist::write_bench(again) != text) {
    throw std::runtime_error("write->parse->write round trip diverged");
  }

  util::Rng rng(1);
  sim::Sequence seq(16, sim::Vector3(c.primary_inputs().size()));
  for (auto& v : seq) {
    for (auto& bit : v) bit = rng.bit() ? sim::V3::k1 : sim::V3::k0;
  }
  for (const auto universe :
       {fault::FaultUniverse::kStuckAt, fault::FaultUniverse::kTransition}) {
    std::vector<fault::Fault> faults = fault::collapse(c, universe).faults;
    if (faults.size() > 256) faults.resize(256);  // keep big circuits quick
    fault::FaultSimulator fs(c, faults);
    fs.run(seq);
    // Power-up: a fresh good machine, all-X faulty state, no launch pending.
    const sim::SequenceSimulator power_up(c);
    const sim::State3 all_x(c.flip_flops().size(), sim::V3::kX);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const bool single = fault::FaultSimulator::would_detect_from(
          c, power_up, all_x, faults[i], seq);
      if (single != static_cast<bool>(fs.detected()[i])) {
        throw std::runtime_error(
            std::string("fault simulators disagree on fault ") +
            std::to_string(i) + " (" + fault::universe_name(universe) + ")");
      }
    }
    std::printf("  %-10s %4zu faults, %4zu detected by %zu random vectors\n",
                fault::universe_name(universe), faults.size(),
                fs.detected_count(), seq.size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gatpg;
  const std::string mode = argc > 1 ? argv[1] : "list";

  if (mode == "list") {
    std::printf("built-in circuits:\n");
    for (const auto& name : gen::registry_names()) {
      const auto c = gen::make_circuit(name);
      const auto st = netlist::stats_of(c);
      std::printf("  %-8s %4zu PIs %4zu POs %5zu FFs %6zu gates "
                  "%5zu faults depth %u\n",
                  name.c_str(), st.inputs, st.outputs, st.flip_flops,
                  st.gates, fault::collapse(c).size(),
                  netlist::sequential_depth(c));
    }
    return 0;
  }
  if (mode == "export" && argc > 2) {
    const std::string name = argv[2];
    const auto c = gen::make_circuit(name);
    const std::string out = argc > 3 ? argv[3] : name + ".bench";
    std::ofstream file(out);
    file << netlist::write_bench(c);
    std::printf("wrote %s\n", out.c_str());
    return 0;
  }
  if (mode == "info" && argc > 2) {
    const auto c = netlist::load_bench_file(argv[2]);
    const auto st = netlist::stats_of(c);
    std::printf("%s: %zu PIs, %zu POs, %zu FFs, %zu gates, %zu collapsed "
                "faults, depth %u, %u levels\n",
                c.name().c_str(), st.inputs, st.outputs, st.flip_flops,
                st.gates, fault::collapse(c).size(),
                netlist::sequential_depth(c), st.levels);
    return 0;
  }
  if (mode == "ingest" && argc > 2) {
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(argv[2])) {
      if (entry.path().extension() == ".bench") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      std::fprintf(stderr, "ingest: no .bench files in %s\n", argv[2]);
      return 1;
    }
    int failures = 0;
    for (const std::string& path : files) {
      std::printf("%s\n", path.c_str());
      try {
        ingest_one(path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "  FAILED: %s\n", e.what());
        ++failures;
      }
    }
    std::printf("ingested %zu file(s), %d failure(s)\n", files.size(),
                failures);
    return failures == 0 ? 0 : 1;
  }
  std::fprintf(stderr,
               "usage: bench_io_tool list | export <name> [file] | "
               "info <file> | ingest <dir>\n");
  return 1;
}
