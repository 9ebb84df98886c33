// Small shared helpers for the microbenchmarks (kept separate from
// tests/helpers; only bench_faultsim includes a test header, the full-sweep
// oracle it measures against).
#pragma once

#include "netlist/circuit.h"
#include "sim/seqsim.h"
#include "util/rng.h"

namespace gatpg::bench {

inline sim::Sequence random_sequence(const netlist::Circuit& c,
                                     util::Rng& rng, std::size_t length) {
  sim::Sequence seq(length,
                    sim::Vector3(c.primary_inputs().size(), sim::V3::k0));
  for (auto& v : seq) {
    for (auto& bit : v) bit = rng.bit() ? sim::V3::k1 : sim::V3::k0;
  }
  return seq;
}

}  // namespace gatpg::bench
