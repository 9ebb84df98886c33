// SIMD-wide path vs 64-bit golden reference.
//
// The width-1 SequenceSimulator path is the retained golden reference; every
// wide consumer must be bit-identical to it:
//
//  * the per-backend gate kernels (scalar / AVX2 / AVX-512) against the
//    PackedV3 reference operations, word for word, at every width,
//  * WideSimulator against SequenceSimulator, slot for slot, including
//    overrides, event-driven re-application, and clocking,
//  * FaultSimulator at widths {2, 4, 8} x threads {1, 4} against the
//    width-1 engines: detection sets *and order*, persisted faulty state,
//    good state, what_if results, and the grouping-invariant stats — over
//    randomized circuits, every registry circuit, and fault counts that are
//    not multiples of 64 (partial slot masks).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "fault/faultlist.h"
#include "fault/faultsim.h"
#include "gen/registry.h"
#include "helpers/random_circuit.h"
#include "sim/seqsim.h"
#include "sim/wide.h"
#include "sim/widesim.h"
#include "util/rng.h"

namespace {

using namespace gatpg;
using fault::FaultSimConfig;
using fault::FaultSimulator;
using netlist::GateType;
using sim::PackedV3;
using sim::SimdBackend;
using sim::V3;
using sim::WideKernels;
using sim::WideMask;
using sim::WideSimulator;

// ---------------------------------------------------------------------------
// Kernel backends vs the PackedV3 reference ops.

/// A random well-formed plane word pair (v1 & v0 == 0, some X slots).
PackedV3 random_packed(util::Rng& rng) {
  const std::uint64_t a = rng();
  const std::uint64_t b = rng();
  return {a & b, a & ~b};
}

TEST(SimdWideKernels, BackendsMatchPackedReference) {
  const std::vector<GateType> comb = {
      GateType::kBuf, GateType::kNot,  GateType::kAnd, GateType::kNand,
      GateType::kOr,  GateType::kNor,  GateType::kXor, GateType::kXnor};
  const std::vector<SimdBackend> backends = {
      SimdBackend::kScalar, SimdBackend::kAvx2, SimdBackend::kAvx512};

  // Identity index array for the PackedV3 reference table.
  std::array<netlist::NodeId, 8> idx;
  for (unsigned i = 0; i < idx.size(); ++i) idx[i] = i;

  util::Rng rng(2024);
  bool tested_nondefault = false;
  for (const SimdBackend backend : backends) {
    const WideKernels* k = sim::wide_kernels_for(backend);
    if (k == nullptr) continue;  // not compiled in or CPU lacks it
    if (backend != SimdBackend::kScalar) tested_nondefault = true;

    for (const GateType type : comb) {
      const sim::WideGateFn fn = k->eval[static_cast<std::size_t>(type)];
      ASSERT_NE(fn, nullptr) << k->name;
      const sim::PackedGateFn ref = sim::packed_gate_fn(type);

      const std::size_t max_nf = (type == GateType::kBuf ||
                                  type == GateType::kNot)
                                     ? 1
                                     : 5;
      // Widths include non-multiples of the vector chunk so the scalar
      // tails of the SIMD kernels are exercised too.
      for (const unsigned nw : {1u, 2u, 3u, 4u, 5u, 7u, 8u}) {
        for (std::size_t nf = 1; nf <= max_nf; ++nf) {
          std::vector<std::vector<std::uint64_t>> rows1(nf), rows0(nf);
          std::vector<const std::uint64_t*> in1(nf), in0(nf);
          std::vector<std::vector<PackedV3>> packed(nw);
          for (unsigned w = 0; w < nw; ++w) packed[w].resize(nf);
          for (std::size_t i = 0; i < nf; ++i) {
            rows1[i].resize(nw);
            rows0[i].resize(nw);
            for (unsigned w = 0; w < nw; ++w) {
              const PackedV3 v = random_packed(rng);
              rows1[i][w] = v.v1;
              rows0[i][w] = v.v0;
              packed[w][i] = v;
            }
            in1[i] = rows1[i].data();
            in0[i] = rows0[i].data();
          }

          std::vector<std::uint64_t> out1(nw, ~0ULL), out0(nw, ~0ULL);
          fn(in1.data(), in0.data(), out1.data(), out0.data(), nf, nw);

          for (unsigned w = 0; w < nw; ++w) {
            const PackedV3 expect = ref(packed[w].data(), idx.data(), nf);
            ASSERT_EQ(out1[w], expect.v1)
                << k->name << " " << netlist::gate_type_name(type)
                << " nf=" << nf << " nw=" << nw << " word=" << w;
            ASSERT_EQ(out0[w], expect.v0)
                << k->name << " " << netlist::gate_type_name(type)
                << " nf=" << nf << " nw=" << nw << " word=" << w;
          }
        }
      }
    }
  }
  // This suite's machines all have AVX2, so the dispatch must have found at
  // least one vector backend unless the build forced scalar.
  if (sim::wide_kernels().backend != SimdBackend::kScalar) {
    EXPECT_TRUE(tested_nondefault);
  }
}

// ---------------------------------------------------------------------------
// WideSimulator vs SequenceSimulator, slot for slot.

void expect_all_rows_match(const WideSimulator& wide,
                           const sim::SequenceSimulator& ref,
                           const char* where) {
  const auto& c = wide.circuit();
  for (netlist::NodeId n = 0; n < c.node_count(); ++n) {
    const PackedV3 v = ref.value(n);
    for (unsigned w = 0; w < wide.words(); ++w) {
      ASSERT_EQ(wide.row1(n)[w], v.v1)
          << where << ": node " << c.name(n) << " plane1 word " << w;
      ASSERT_EQ(wide.row0(n)[w], v.v0)
          << where << ": node " << c.name(n) << " plane0 word " << w;
    }
  }
}

TEST(SimdWideSim, MatchesSequenceSimulatorSlotForSlot) {
  // Drives both machines with identical per-slot packed vectors (the wide
  // machine gets each 64-slot pattern replicated into every word) through a
  // session of applies, clocks, override changes, and mid-stream retirement.
  for (const auto& spec : {test::RandomCircuitSpec{4, 3, 30, 3, 101},
                           test::RandomCircuitSpec{6, 5, 90, 4, 102},
                           test::RandomCircuitSpec{5, 0, 40, 3, 103}}) {
    const auto c = test::make_random_circuit(spec);
    const auto num_pi = c.primary_inputs().size();
    const auto faults = fault::collapse(c).faults;

    for (const unsigned nw : {1u, 2u, 8u}) {
      util::Rng rng(spec.seed);
      sim::SequenceSimulator ref(c);
      WideSimulator wide(c, nw);

      // A couple of faults injected with a random (partial) slot mask.
      const std::uint64_t masks[2] = {rng() | 1, rng() | 1};
      for (std::size_t i = 0; i < 2 && i < faults.size(); ++i) {
        const auto& g = faults[std::min<std::size_t>(i * 3, faults.size() - 1)];
        WideMask wm;
        for (unsigned w = 0; w < nw; ++w) wm.w[w] = masks[i];
        if (g.pin == fault::kOutputPin) {
          ref.add_output_override(g.node, g.stuck_at, masks[i]);
          wide.add_output_override(g.node, g.stuck_at, wm);
        } else {
          ref.add_input_override(g.node, static_cast<unsigned>(g.pin),
                                 g.stuck_at, masks[i]);
          wide.add_input_override(g.node, static_cast<unsigned>(g.pin),
                                  g.stuck_at, wm);
        }
      }

      std::vector<PackedV3> pi_words(num_pi);
      std::vector<std::uint64_t> pi1(num_pi * nw), pi0(num_pi * nw);
      for (int t = 0; t < 24; ++t) {
        for (std::size_t i = 0; i < num_pi; ++i) {
          const PackedV3 v = random_packed(rng);
          pi_words[i] = v;
          for (unsigned w = 0; w < nw; ++w) {
            pi1[i * nw + w] = v.v1;
            pi0[i * nw + w] = v.v0;
          }
        }
        ref.apply_packed(pi_words);
        wide.apply_wide(pi1, pi0);
        expect_all_rows_match(wide, ref, "after apply");

        if (t == 9) {
          // Retire a random slot subset mid-session, exactly like the fault
          // simulator does after detections.
          const std::uint64_t keep = rng();
          WideMask wkeep;
          for (unsigned w = 0; w < nw; ++w) wkeep.w[w] = keep;
          ref.retain_override_slots(keep);
          wide.retain_override_slots(wkeep);
        }
        if (t == 15) {
          ref.clear_overrides();
          wide.clear_overrides();
        }

        ref.clock();
        wide.clock();
        expect_all_rows_match(wide, ref, "after clock");
      }

      // state() must agree per slot as well.
      for (unsigned s = 0; s < 64; ++s) {
        ASSERT_EQ(wide.state(s), ref.state(s));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FaultSimulator: wide engines vs the width-1 golden reference.

FaultSimConfig make_config(bool differential, unsigned threads,
                           unsigned width, unsigned window = 32) {
  FaultSimConfig config;
  config.parallel.threads = threads;
  config.differential = differential;
  config.window = window;
  config.width = width;
  return config;
}

std::vector<test::RandomCircuitSpec> specs() {
  std::vector<test::RandomCircuitSpec> out;
  out.push_back({4, 3, 30, 3, 11});
  out.push_back({6, 5, 90, 4, 22});
  out.push_back({8, 8, 160, 6, 33});
  out.push_back({5, 0, 40, 3, 44});  // purely combinational
  return out;
}

std::vector<sim::Sequence> session_chunks(const netlist::Circuit& c,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  return {test::random_sequence(c, rng, 17, 0.0),
          test::random_sequence(c, rng, 9, 0.25),
          test::random_sequence(c, rng, 41, 0.1)};
}

void expect_sessions_match(const netlist::Circuit& c,
                           const std::vector<fault::Fault>& faults,
                           const std::vector<sim::Sequence>& chunks,
                           FaultSimConfig config_a, FaultSimConfig config_b) {
  FaultSimulator a(c, faults, config_a);
  FaultSimulator b(c, faults, config_b);
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    const auto newly_a = a.run(chunks[k]);
    const auto newly_b = b.run(chunks[k]);
    ASSERT_EQ(newly_a, newly_b)
        << "detection lists differ at chunk " << k << " (width "
        << config_a.width << " vs " << config_b.width << ")";
  }
  ASSERT_EQ(a.detected(), b.detected());
  ASSERT_EQ(a.detected_count(), b.detected_count());
  ASSERT_EQ(a.good_state(), b.good_state());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    ASSERT_EQ(a.fault_state(i), b.fault_state(i))
        << "persisted faulty state differs for fault " << i;
  }
  // Stats that do not depend on fault grouping must be width-invariant.
  ASSERT_EQ(a.stats().frames, b.stats().frames);
  ASSERT_EQ(a.stats().good_gate_evals, b.stats().good_gate_evals);
}

TEST(SimdWideFaultSim, DifferentialMatchesWidth1) {
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c).faults;
    for (const unsigned width : {2u, 4u, 8u}) {
      expect_sessions_match(c, faults, session_chunks(c, spec.seed),
                            make_config(true, 1, width),
                            make_config(true, 1, 1));
    }
  }
}

TEST(SimdWideFaultSim, DifferentialWideThreadedMatchesWidth1Serial) {
  // Strongest cross-check: wide at 4 threads vs the legacy serial engine.
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c).faults;
    for (const unsigned width : {2u, 4u, 8u}) {
      expect_sessions_match(c, faults, session_chunks(c, spec.seed),
                            make_config(true, 4, width),
                            make_config(true, 1, 1));
    }
  }
}

TEST(SimdWideFaultSim, FullSweepWideMatchesWidth1) {
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c).faults;
    for (const unsigned width : {2u, 8u}) {
      expect_sessions_match(c, faults, session_chunks(c, spec.seed),
                            make_config(false, 4, width),
                            make_config(false, 1, 1));
    }
  }
}

TEST(SimdWideFaultSim, CrossEngineWideDifferentialVsFullSweep) {
  // The two wide engines against each other, no width-1 machinery involved.
  const test::RandomCircuitSpec spec{6, 5, 90, 4, 55};
  const auto c = test::make_random_circuit(spec);
  const auto faults = fault::collapse(c).faults;
  expect_sessions_match(c, faults, session_chunks(c, spec.seed),
                        make_config(true, 2, 4),
                        make_config(false, 2, 4));
}

TEST(SimdWideFaultSim, PartialSlotMasks) {
  // Fault counts that are not multiples of 64 leave partial (and at width 8
  // entirely empty) words in every slot mask; detection results must be
  // unaffected.  3 < 64 exercises a single partial word, 70 crosses one
  // word boundary, 130 leaves a 2-bit third word.
  const test::RandomCircuitSpec spec{8, 8, 160, 6, 66};
  const auto c = test::make_random_circuit(spec);
  const auto all = fault::collapse(c).faults;
  for (const std::size_t count : {std::size_t{3}, std::size_t{70},
                                  std::size_t{130}}) {
    if (all.size() < count) continue;
    const std::vector<fault::Fault> subset(all.begin(), all.begin() + count);
    for (const unsigned width : {2u, 8u}) {
      expect_sessions_match(c, subset, session_chunks(c, spec.seed + count),
                            make_config(true, 2, width),
                            make_config(true, 1, 1));
      expect_sessions_match(c, subset, session_chunks(c, spec.seed + count),
                            make_config(false, 1, width),
                            make_config(false, 1, 1));
    }
  }
}

TEST(SimdWideFaultSim, WindowIndependentAtWidth) {
  const test::RandomCircuitSpec spec{6, 5, 90, 4, 7};
  const auto c = test::make_random_circuit(spec);
  const auto faults = fault::collapse(c).faults;
  for (const unsigned window : {1u, 2u, 7u, 64u}) {
    expect_sessions_match(c, faults, session_chunks(c, 99),
                          make_config(true, 2, 4, window),
                          make_config(true, 1, 1));
  }
}

TEST(SimdWideFaultSim, WhatIfMatchesWidth1AndKeepsSessionIntact) {
  for (const auto& spec : specs()) {
    const auto c = test::make_random_circuit(spec);
    const auto faults = fault::collapse(c).faults;
    FaultSimulator wide(c, faults, make_config(true, 4, 4));
    FaultSimulator narrow(c, faults, make_config(true, 1, 1));

    util::Rng rng(spec.seed + 5);
    const auto warmup = test::random_sequence(c, rng, 13, 0.1);
    ASSERT_EQ(wide.run(warmup), narrow.run(warmup));

    std::vector<std::size_t> all(faults.size());
    std::iota(all.begin(), all.end(), 0);
    const auto probe = test::random_sequence(c, rng, 21, 0.15);

    const auto wa = wide.what_if(all, probe);
    const auto wb = narrow.what_if(all, probe);
    EXPECT_EQ(wa.detected, wb.detected);
    EXPECT_EQ(wa.state_effects, wb.state_effects);

    // Subset query with a non-multiple-of-64 count.
    const std::vector<std::size_t> subset(
        all.begin(), all.begin() + std::min<std::size_t>(all.size(), 7));
    const auto sa = wide.what_if(subset, probe);
    const auto sb = narrow.what_if(subset, probe);
    EXPECT_EQ(sa.detected, sb.detected);
    EXPECT_EQ(sa.state_effects, sb.state_effects);

    // The wide full-sweep what_if path as well.
    FaultSimulator wide_fs(c, faults, make_config(false, 2, 8));
    FaultSimulator narrow_fs(c, faults, make_config(false, 1, 1));
    ASSERT_EQ(wide_fs.run(warmup), narrow_fs.run(warmup));
    const auto fa = wide_fs.what_if(subset, probe);
    const auto fb = narrow_fs.what_if(subset, probe);
    EXPECT_EQ(fa.detected, fb.detected);
    EXPECT_EQ(fa.state_effects, fb.state_effects);

    // what_if must not have touched the sessions.
    const auto more = test::random_sequence(c, rng, 11, 0.0);
    EXPECT_EQ(wide.run(more), narrow.run(more));
    EXPECT_EQ(wide.good_state(), narrow.good_state());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(wide.fault_state(i), narrow.fault_state(i));
    }
  }
}

TEST(SimdWideFaultSim, StatsThreadInvariantAtFixedWidth) {
  // At a fixed width *all* counters are thread-count-independent; across
  // widths only the grouping-independent subset is comparable.
  const test::RandomCircuitSpec spec{6, 5, 90, 4, 13};
  const auto c = test::make_random_circuit(spec);
  const auto faults = fault::collapse(c).faults;

  auto run_session = [&](unsigned threads, unsigned width) {
    FaultSimulator fs(c, faults, make_config(true, threads, width, 8));
    for (const auto& chunk : session_chunks(c, 42)) fs.run(chunk);
    return fs.stats();
  };
  for (const unsigned width : {2u, 4u, 8u}) {
    const auto s1 = run_session(1, width);
    const auto s4 = run_session(4, width);
    EXPECT_EQ(s1.gate_evals, s4.gate_evals) << "width " << width;
    EXPECT_EQ(s1.good_gate_evals, s4.good_gate_evals) << "width " << width;
    EXPECT_EQ(s1.frames, s4.frames) << "width " << width;
    EXPECT_EQ(s1.group_vectors, s4.group_vectors) << "width " << width;
    EXPECT_EQ(s1.group_vectors_skipped, s4.group_vectors_skipped)
        << "width " << width;
    EXPECT_EQ(s1.groups_repacked, s4.groups_repacked) << "width " << width;
    EXPECT_GT(s1.gate_evals, 0u);
    EXPECT_EQ(s1.frames, 17u + 9u + 41u);
  }
}

TEST(SimdWideFaultSim, EveryRegistryCircuit) {
  // One bounded differential session per registry circuit: a sampled fault
  // subset (deliberately not a multiple of 64) over a short mixed-X
  // sequence, wide-threaded vs the width-1 serial reference.
  for (const std::string& name : gen::registry_names()) {
    const auto c = gen::make_circuit(name);
    const auto all = fault::collapse(c).faults;
    // Sample <= 97 faults, stride-spread across the circuit.
    const std::size_t target = std::min<std::size_t>(all.size(), 97);
    const std::size_t stride = all.size() / target ? all.size() / target : 1;
    std::vector<fault::Fault> faults;
    for (std::size_t i = 0; i < all.size() && faults.size() < target;
         i += stride) {
      faults.push_back(all[i]);
    }
    util::Rng rng(std::hash<std::string>{}(name));
    const std::vector<sim::Sequence> chunks = {
        test::random_sequence(c, rng, 8, 0.0),
        test::random_sequence(c, rng, 6, 0.2)};
    expect_sessions_match(c, faults, chunks, make_config(true, 4, 4),
                          make_config(true, 1, 1));
  }
}

}  // namespace
