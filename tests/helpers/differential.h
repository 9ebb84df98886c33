// Runs and gtest checks shared by the differential suites (kill/resume,
// lanes, transition execution shapes): capped fault lists, one recorded
// hybrid run, and field-by-field equality of the counter records, of whole
// session results and of per-target effort traces.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "fault/faultlist.h"
#include "hybrid/hybrid_atpg.h"
#include "netlist/depth.h"
#include "session/observer.h"
#include "session/session.h"
#include "util/fields.h"
#include "util/rng.h"

namespace gatpg::test {

/// The first `cap` faults of `c`'s collapsed `universe` list.
inline fault::FaultList capped_faults(
    const netlist::Circuit& c, std::size_t cap,
    fault::FaultUniverse universe = fault::FaultUniverse::kStuckAt) {
  fault::FaultList full = fault::collapse(c, universe);
  if (full.size() > cap) {
    full.faults.resize(cap);
    full.class_sizes.resize(cap);
  }
  return full;
}

/// Records the per-target observer stream — the strictest ordering witness:
/// a run in another execution shape must fire on_target_end for the same
/// faults, with the same effort numbers, in the same order.
class TargetTrace : public session::ProgressObserver {
 public:
  void on_target_end(const session::Session&,
                     const session::TargetEffort& effort) override {
    efforts.push_back(effort);
  }
  std::vector<session::TargetEffort> efforts;
};

struct RunOutput {
  session::SessionResult result;
  std::vector<session::TargetEffort> trace;
  hybrid::SpecStats spec;
};

/// One hybrid run of `cfg` with its observer stream and speculation ledger.
inline RunOutput run_once(const netlist::Circuit& c,
                          const fault::FaultList& faults,
                          const hybrid::HybridConfig& cfg) {
  session::Session s(c, faults, cfg.session_config());
  TargetTrace trace;
  s.set_observer(&trace);
  util::Rng rng(cfg.seed);
  hybrid::HybridEngine engine(c, cfg, netlist::sequential_depth(c), rng);
  RunOutput out;
  out.result = s.run(engine, cfg.schedule);
  out.trace = std::move(trace.efforts);
  out.spec = engine.spec_stats();
  return out;
}

/// Compares two counter records (util/fields.h) field by field; a failure
/// names the field.
template <typename Record>
void expect_counters_equal(const Record& a, const Record& b) {
  util::for_each_field(
      [](const char* name, const auto& x, const auto& y) {
        EXPECT_EQ(x, y) << "counter " << name;
      },
      a, b);
}

/// Bit-for-bit equality of everything a run produces except wall-clock
/// times (PassOutcome::time_s is the one legitimately nondeterministic
/// field).
inline void expect_identical(const session::SessionResult& a,
                             const session::SessionResult& b) {
  EXPECT_EQ(a.digests.faults, b.digests.faults);
  EXPECT_EQ(a.digests.tests, b.digests.tests);
  EXPECT_EQ(a.digests.store, b.digests.store);
  EXPECT_EQ(a.fault_state, b.fault_state);
  EXPECT_EQ(a.test_set, b.test_set);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.passes.size(), b.passes.size());
  for (std::size_t p = 0; p < a.passes.size(); ++p) {
    EXPECT_EQ(a.passes[p].detected, b.passes[p].detected);
    EXPECT_EQ(a.passes[p].vectors, b.passes[p].vectors);
    EXPECT_EQ(a.passes[p].untestable, b.passes[p].untestable);
  }
  expect_counters_equal(a.counters, b.counters);
}

/// The per-target observer streams of two runs fire for the same faults,
/// of the same model, with the same effort numbers, in the same order.
inline void expect_trace_equal(const std::vector<session::TargetEffort>& a,
                               const std::vector<session::TargetEffort>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fault_index, b[i].fault_index) << "target " << i;
    EXPECT_EQ(a[i].model, b[i].model) << "target " << i;
    EXPECT_EQ(a[i].decisions, b[i].decisions) << "target " << i;
    EXPECT_EQ(a[i].backtracks, b[i].backtracks) << "target " << i;
    EXPECT_EQ(a[i].gate_evals, b[i].gate_evals) << "target " << i;
    EXPECT_EQ(a[i].events, b[i].events) << "target " << i;
  }
}

}  // namespace gatpg::test
