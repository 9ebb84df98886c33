// Sequential depth metric.
//
// The paper sizes GA test-sequence lengths as multiples of the circuit's
// sequential depth (Table II lists the depth it used per circuit).  We use
// the standard structural definition: build the flip-flop dependency graph
// (edge u -> v when FF u's output reaches FF v's D input through
// combinational logic only) and take the longest of the shortest distances
// from PI-fed flip-flops (those whose D cone contains a primary input) to
// every other reachable flip-flop, plus one frame to load the PI-fed rank
// itself.  A D cone is netlist::walk_fanin's cone of the D input, so it
// ends at flip-flop outputs: a flip-flop loaded straight from another one
// sits one frame behind it.  Flip-flops unreachable from such a source
// (e.g. isolated cycles) are assigned the flip-flop count as a conservative
// bound.  Circuits with no flip-flops have depth 0.
#pragma once

#include "netlist/circuit.h"

namespace gatpg::netlist {

unsigned sequential_depth(const Circuit& c);

}  // namespace gatpg::netlist
