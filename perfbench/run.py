#!/usr/bin/env python3
"""End-to-end GA-HITEC benchmark: build, run one workload, check the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a gatpg checkout.  The first call configures and builds
the benchmark (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR,
default .bench_build; later calls only rebuild what changed.  The program's
stdout is relayed; its last line, one JSON object with the metrics, is
printed only after its metric names and units have been checked against
BENCHMARK.json.  The exit code is the program's (nonzero on any failed
correctness check), 2 on bad arguments or a missing source tree.

--self-test runs every workload once at reduced size, traced and untraced
(the traced run must reproduce the untraced digests), checks every printed
metric name and unit, and checks that bad workload and circuit names fail
cleanly.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "gabench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only benchmark output.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(proc.returncode or 1)
    return out / "gabench"


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def check_result(line, spec, trace):
    """Returns the parsed result line, or raises ValueError."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys differ: %s" % sorted(result))
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s, wrong unit %s" % (missing, extra, wrong))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            raise ValueError("metric %s has no numeric value" % name)
    return result


def run(binary, spec, args, extra=()):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.trace:
        cmd += ["--trace-out", str(build_dir() / (
            "trace-%s-%d.jsonl" % (args.workload, args.seed)))]
    if args.circuit:
        cmd += ["--circuit", args.circuit]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        log("run.py: the benchmark printed no result (exit %d)"
            % proc.returncode)
        return proc.returncode or 1, None
    try:
        result = check_result(lines[-1], spec, args.trace)
    except ValueError as e:
        log("run.py: " + str(e))
        return 1, None
    print(lines[-1], flush=True)
    return proc.returncode, result


def check_layer_doc(spec):
    """perfbench/layers.json must explain every workload and layer metric."""
    with open(HERE / "layers.json") as f:
        doc = json.load(f)
    documented = [m for layer in doc["layers"] for m in layer["metrics"]]
    problems = []
    if sorted(documented) != sorted(m["name"] for m in spec["per_layer"]):
        problems.append("layers.json metrics differ from per_layer")
    if sorted(doc["workloads"]) != sorted(w["name"] for w in spec["workloads"]):
        problems.append("layers.json workloads differ from BENCHMARK.json")
    return problems


def self_test(binary, spec):
    failures = check_layer_doc(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=1, seconds=1,
                                      trace=trace, circuit=None)
            code, result = run(binary, spec, args, extra=["--quick"])
            ok = code == 0 and result is not None and result["correct"]
            log("self-test %-12s trace=%d: %s"
                % (w["name"], trace, "ok" if ok else "FAILED"))
            if not ok:
                failures.append("%s trace=%d" % (w["name"], trace))
    name = spec["workloads"][0]["name"]
    for bad in (["--workload", "no_such_workload"],
                ["--workload", name, "--circuit", "no_such_circuit"]):
        proc = subprocess.run([str(binary), "--seconds", "1"] + bad,
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        ok = proc.returncode == 2 and "valid" in proc.stderr
        log("self-test bad name %s: %s" % (bad[-1], "ok" if ok else "FAILED"))
        if not ok:
            failures.append("bad name " + bad[-1])
    if failures:
        log("self-test FAILED: " + ", ".join(failures))
        return 1
    log("self-test passed")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--circuit", help="run the workload on another circuit")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("run.py: no gatpg source tree at %s (expected src/)" % ROOT)
        return 2
    spec = load_spec()
    if args.self_test:
        return self_test(build(), spec)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("run.py: unknown workload %r; valid workloads: %s"
            % (args.workload, " ".join(names)))
        return 2
    if args.seed < 0:
        log("run.py: --seed must be a non-negative integer")
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    code, _ = run(build(), spec, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
