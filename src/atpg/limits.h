// Per-fault search resource limits.
//
// The paper's pass schedule is expressed in these terms: a wall-clock limit
// per fault (1 s / 10 s / 100 s on the original hardware, scaled here), a
// backtrack cap (HITEC's 10,000, multiplied by ten per pass), a bound on
// forward propagation frames, and a bound on reverse-time justification
// depth.  A search that ends because a limit was hit is "aborted", never
// "untestable" — untestability requires a completed exhaustive search.
//
// ForwardEngine and DeterministicJustifier never read time_limit_s: the
// util::Deadline each search call takes is their clock.  The field only
// carries a per-fault limit to callers that build that deadline (the
// alternating engine turns AlternatingConfig::det_limits into a pass time
// limit), so setting it on limits handed straight to an engine bounds
// nothing.
#pragma once

namespace gatpg::atpg {

struct SearchLimits {
  double time_limit_s = 1.0;        // per targeted fault
  long max_backtracks = 10000;      // per targeted fault
  unsigned max_forward_frames = 16; // propagation window
  unsigned max_justify_depth = 32;  // reverse-time frames
};

}  // namespace gatpg::atpg
