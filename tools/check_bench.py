#!/usr/bin/env python3
"""Threshold check for bench JSON reports against committed snapshots.

One checker, per-bench threshold specs.  Every bench shares the same
contract:

  * the fresh run's bench arguments must match the snapshot's (comparing
    counters across different workloads is meaningless);
  * the bench's self-check invariants must hold (cross-mode/config
    identity booleans emitted by the bench itself);
  * deterministic counters must equal the snapshot exactly, per circuit
    and per result row — the simulated/searched work is bit-stable across
    commits, so any drift is a behavior change, not noise;
  * wall-clock-derived overall ratios must stay above floors that sit
    deliberately below the locally-measured values to absorb CI runner
    noise (a real regression drops the ratio toward 1.0).

Thread-scaling ratios (marked needs_threads in the spec) are only
meaningful when the machine that produced the fresh report actually has
that many cores: a report recorded with hardware_concurrency below the
thread count can't show a speedup no matter how good the code is, so
those gates downgrade to warnings instead of failing the run.  Identity
gates never downgrade — determinism must hold at any core count.

Supported benches:

  detengine   BENCH_detengine.json — deterministic-engine search counters,
              FrameModel pool-reuse regression guard, speculative-targeting
              serial-vs-lanes identity gate plus speedup floor
              (target_speedup >= 1.5 at --threads lanes, thread-scaling).
  faultsim    BENCH_faultsim.json — fault-simulator gate-eval/grouping
              counters per (engine, threads) row, differential-mode
              gate-eval reduction floor (overall_gate_eval_reduction
              >= 1.5).
  faults      BENCH_faults.json — hybrid ATPG per fault model: exact-match
              coverage/test-set counters and digests per (circuit, model)
              row (the schedule is wall-clock-free, so rows are
              machine-independent), execution-shape identity invariants,
              and per-model coverage floors (min_coverage_stuck_at >= 0.5,
              min_coverage_transition >= 0.25).
  tables      BENCH_tables.json — the paper's Tables II/III and Fig. 1:
              exact-match per-pass Det/Vec/Unt, flowchart counters and
              digests per (circuit, engine) row (count budgets only, so
              rows are machine-independent), and the thread/lane identity
              invariant.  No floor; wall times are recorded, never gated.

Usage:
  check_bench.py --bench detengine --fresh build/BENCH_detengine.json \
      --snapshot BENCH_detengine.json
  check_bench.py --bench faultsim --fresh build/BENCH_faultsim.json \
      --snapshot BENCH_faultsim.json [--min-ratio 1.5]
  check_bench.py --bench tables --fresh build/BENCH_tables.json \
      --snapshot BENCH_tables.json

--min-ratio overrides the floor of the bench's first (primary) ratio.
"""

import argparse
import json
import sys


def detengine_pool_guard(name, fresh_row, snap_row, errors):
    """Pool-reuse regression: constructions must not grow (acquires scale
    with the fault count, builds stay at a handful)."""
    if fresh_row.get("model_builds", 0) > snap_row.get("model_builds", 0):
        errors.append(
            f"{name}: pool constructions regressed "
            f"{snap_row.get('model_builds')} -> "
            f"{fresh_row.get('model_builds')} (reset-and-reuse broken?)")


def detengine_targeting(fresh, snap, errors, warnings):
    """Speculative-targeting section: the lane run must be bit-identical to
    the serial run (checked by the bench itself, re-asserted here), and the
    deterministic parts of the speculation ledger must match the snapshot.
    wasted_gate_evals is timing-dependent (how far a discarded lane ran
    before noticing its cancel flag) and is never gated."""
    snap_rows = {t["name"]: t for t in snap.get("targeting", [])}
    fresh_rows = {t["name"]: t for t in fresh.get("targeting", [])}
    for name, st in snap_rows.items():
        ft = fresh_rows.get(name)
        if ft is None:
            errors.append(f"targeting/{name}: missing from fresh run")
            continue
        if not ft.get("identical", False):
            errors.append(
                f"targeting/{name}: lane run diverged from serial "
                f"(in-order-commit determinism broken)")
        for srow in st.get("rows", []):
            frow = next((r for r in ft.get("rows", [])
                         if r.get("lanes") == srow.get("lanes")), None)
            if frow is None:
                errors.append(
                    f"targeting/{name}: no row for lanes="
                    f"{srow.get('lanes')} in fresh run")
                continue
            for counter in ("detected", "vectors", "speculated",
                            "committed", "discarded"):
                if frow.get(counter) != srow.get(counter):
                    errors.append(
                        f"targeting/{name}/lanes={srow.get('lanes')}: "
                        f"{counter} changed {srow.get(counter)} -> "
                        f"{frow.get(counter)}")


def max_row_threads(report):
    """Highest thread count any result row of the report was recorded at
    (plus the top-level lane count, for benches that record one)."""
    threads = [report.get("threads", 0)]
    for circuit in report.get("circuits", []):
        for row in circuit.get("results", []):
            threads.append(row.get("threads", 0))
    return max(threads)


BENCH_SPECS = {
    "detengine": {
        "args": ("max_faults", "backtracks", "solutions", "repeat",
                 "threads"),
        "invariants": {
            "targeting_identical":
                "the speculative lane run diverged from the serial run",
        },
        # One result row per circuit, keyed by its engine label.
        "row_key": lambda r: r["engine"],
        "counters": ("decisions", "backtracks", "gate_evals", "events",
                     "solved", "untestable"),
        "row_guards": {"incremental-flat-pooled": detengine_pool_guard},
        "ratios": (
            {"key": "target_speedup", "floor": 1.5, "needs_threads": True},
        ),
        "extra": detengine_targeting,
    },
    "faultsim": {
        "args": ("vectors", "repeat"),
        "invariants": {
            "consistent_across_configs":
                "an engine/thread configuration diverged from the "
                "full-sweep reference",
        },
        # One result row per (engine, thread-count) configuration.
        "row_key": lambda r: f"{r['engine']}@t{r['threads']}",
        "counters": ("gate_evals", "good_gate_evals", "group_vectors",
                     "group_vectors_skipped", "groups_repacked", "detected"),
        "row_guards": {},
        "ratios": (
            {"key": "overall_gate_eval_reduction", "floor": 1.5},
        ),
        "extra": None,
    },
    "faults": {
        "args": ("seed", "backtracks", "cap"),
        "invariants": {
            "consistent_across_configs":
                "a fault-sim thread-count variant diverged",
            "stuck_at_matches_default":
                "the fault-model axis is no longer invisible to default "
                "(stuck-at) configurations",
        },
        # One result row per fault model within a circuit.
        "row_key": lambda r: r["model"],
        # The schedule is backtrack-bounded (never wall-clock), so every
        # counter — including the test-set digest — is machine-independent
        # and exact-matched against the committed snapshot.
        "counters": ("faults", "detected", "untestable", "vectors",
                     "targeted", "committed_tests", "digest_tests"),
        "row_guards": {},
        "ratios": (
            {"key": "min_coverage_stuck_at", "floor": 0.5},
            {"key": "min_coverage_transition", "floor": 0.25},
        ),
        "extra": None,
    },
    "tables": {
        "args": ("seed", "backtracks", "solutions", "names",
                 "identity_rows"),
        "invariants": {
            "consistent_across_configs":
                "a 4-thread or 4-lane rerun diverged from the serial run",
        },
        # One result row per engine (ga-hitec, hitec) within a circuit.
        "row_key": lambda r: r["engine"],
        # Per-pass cumulative rows, Fig. 1 counters and digests; the
        # schedules have no wall-clock limit, so all are exact.
        "counters": ("det", "vec", "unt", "targeted", "forward_solutions",
                     "no_justification_needed", "ga_invocations",
                     "ga_successes", "det_justify_calls",
                     "det_justify_successes", "verify_failures",
                     "aborted_faults", "digest_faults", "digest_tests"),
        "row_guards": {},
        "ratios": (),
        "extra": None,
    },
}


def load(path):
    with open(path) as f:
        return json.load(f)


def check(spec, fresh, snap, primary_floor):
    errors = []
    warnings = []

    for key in spec["args"]:
        if fresh.get(key) != snap.get(key):
            errors.append(
                f"bench arg mismatch: {key} fresh={fresh.get(key)} "
                f"snapshot={snap.get(key)} (rerun with the snapshot's args)")

    for key, message in spec["invariants"].items():
        if not fresh.get(key, False):
            errors.append(f"{key} is false: {message}")

    snap_circuits = {c["name"]: c for c in snap.get("circuits", [])}
    fresh_circuits = {c["name"]: c for c in fresh.get("circuits", [])}
    row_key = spec["row_key"]
    for name, sc in snap_circuits.items():
        fc = fresh_circuits.get(name)
        if fc is None:
            errors.append(f"{name}: missing from fresh run")
            continue
        snap_rows = {row_key(r): r for r in sc["results"]}
        fresh_rows = {row_key(r): r for r in fc["results"]}
        for key, sr in snap_rows.items():
            fr = fresh_rows.get(key)
            if fr is None:
                errors.append(f"{name}/{key}: missing from fresh run")
                continue
            for counter in spec["counters"]:
                if fr.get(counter) != sr.get(counter):
                    errors.append(
                        f"{name}/{key}: {counter} changed "
                        f"{sr.get(counter)} -> {fr.get(counter)}")
            guard = spec["row_guards"].get(fr.get("engine"))
            if guard:
                guard(name, fr, sr, errors)

    if spec["extra"]:
        spec["extra"](fresh, snap, errors, warnings)

    # Thread-scaling blind spot: a report recorded on a machine with fewer
    # cores than its highest thread-count row can't show real scaling, so
    # scaling-dependent gates become warnings instead of failures.
    hardware = fresh.get("hardware_concurrency", 0)
    recorded = max_row_threads(fresh)
    underprovisioned = hardware and recorded and hardware < recorded
    if underprovisioned:
        warnings.append(
            f"hardware_concurrency={hardware} is below the report's "
            f"highest thread count ({recorded}); thread-scaling figures "
            f"are not meaningful on this machine")

    ratios = []
    for i, gate in enumerate(spec["ratios"]):
        floor = primary_floor if i == 0 and primary_floor is not None \
            else gate["floor"]
        ratio = fresh.get(gate["key"], 0.0)
        ratios.append((gate["key"], ratio, floor))
        if ratio >= floor:
            continue
        message = (
            f"{gate['key']} {ratio:.3f} below floor {floor:.2f} "
            f"(snapshot recorded {snap.get(gate['key'], 0.0):.3f})")
        if gate.get("needs_threads") and underprovisioned:
            warnings.append(
                message + " — downgraded to a warning: measured with "
                f"hardware_concurrency={hardware}")
        else:
            errors.append(message)
    return errors, warnings, ratios


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True, choices=sorted(BENCH_SPECS),
                    help="which bench's thresholds to apply")
    ap.add_argument("--fresh", required=True,
                    help="bench JSON from this run")
    ap.add_argument("--snapshot", required=True,
                    help="committed reference bench JSON")
    ap.add_argument("--min-ratio", type=float, default=None,
                    help="floor for the bench's primary wall-clock ratio "
                         "(default: per-bench)")
    args = ap.parse_args()

    spec = BENCH_SPECS[args.bench]
    errors, warnings, ratios = check(
        spec, load(args.fresh), load(args.snapshot), args.min_ratio)

    for w in warnings:
        print(f"WARN: {w}", file=sys.stderr)
    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return 1
    summary = ", ".join(f"{key} x{ratio:.2f} (floor {floor:.2f})"
                        for key, ratio, floor in ratios)
    print(f"OK [{args.bench}]: counters stable"
          + (f", {summary}" if summary else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
