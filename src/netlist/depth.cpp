#include "netlist/depth.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>

#include "netlist/fanin_walk.h"

namespace gatpg::netlist {

unsigned sequential_depth(const Circuit& c) {
  const auto ffs = c.flip_flops();
  const std::size_t nff = ffs.size();
  if (nff == 0) return 0;
  constexpr std::uint32_t kNoFlipFlop = ~std::uint32_t{0};

  // s-graph: ff_targets[u] lists the flip-flops whose D cone reads
  // flip-flop u; pi_fed marks those whose D cone reads a primary input.
  // seen[n] is the last flip-flop whose D cone reached node n.
  std::vector<std::vector<std::size_t>> ff_targets(nff);
  std::vector<char> pi_fed(nff, 0);
  std::vector<std::uint32_t> seen(c.node_count(), kNoFlipFlop);
  FaninStack stack;
  for (std::uint32_t v = 0; v < nff; ++v) {
    walk_fanin(
        c, c.fanins(ffs[v])[0], stack,
        [&](NodeId n) { return std::exchange(seen[n], v) != v; },
        [&](NodeId n) {
          if (c.ff_index(n) >= 0) {
            ff_targets[static_cast<std::size_t>(c.ff_index(n))].push_back(v);
          } else if (c.pi_index(n) >= 0) {
            pi_fed[v] = 1;
          }
        });
  }

  // Shortest distance (in time frames) from the primary inputs to each
  // flip-flop; the sequential depth is the largest such distance.
  constexpr unsigned kInf = std::numeric_limits<unsigned>::max();
  std::vector<unsigned> dist(nff, kInf);
  std::deque<std::size_t> queue;
  for (std::size_t v = 0; v < nff; ++v) {
    if (pi_fed[v]) {
      dist[v] = 1;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop_front();
    for (std::size_t v : ff_targets[u]) {
      if (dist[v] == kInf) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }

  unsigned depth = 0;
  for (std::size_t v = 0; v < nff; ++v) {
    // A flip-flop no input can reach (degenerate) falls back to the
    // flip-flop count as a conservative bound.
    depth = std::max(depth, dist[v] == kInf ? static_cast<unsigned>(nff)
                                            : dist[v]);
  }
  return depth;
}

}  // namespace gatpg::netlist
