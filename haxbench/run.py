#!/usr/bin/env python3
"""Runs the repository benchmark (see haxbench/README.md).

Run from the root of a checkout:

    python3 haxbench/run.py --workload cold-solve --seed 1 --seconds 20 --trace 0
    python3 haxbench/run.py --workload all --seed 1

The first call configures and builds haxbench (CMake, Release) into
.bench_build/haxbench; later calls rebuild incrementally. One workload run
prints a human-readable report and, as its last line, the result object
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs every
workload in turn. The exit status is 0 only when every output check passed.

Each run also writes .bench_build/out/<workload>-seed<N>-trace<T>.record.json:
every metric under both vocabularies, cold/warm/simulated labels, provenance
(commit, dirty tree, build type and flags, nproc, seed), and for each
end-to-end metric its bound next to the run-to-run spread measured by
haxbench/spread.py (haxbench/spread.json).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "haxbench"
OUT = ROOT / ".bench_build" / "out"
WORKLOADS = ["cold-solve", "serve-drift", "sim-stream", "fleet-replay"]
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"haxbench: no library sources at {ROOT / 'src'}; run from a full checkout")
        sys.exit(3)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("haxbench: build failed:", " ".join(cmd))
            sys.exit(3)
    return BUILD / "haxbench"


def git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed):
    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = None
    if commit is not None:
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "commit": commit or "unknown (not a git checkout)",
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def annotate_record(workload, seed, trace):
    """Adds provenance and the bound / measured spread of each metric."""
    path = OUT / f"{workload}-seed{seed}-trace{trace}.record.json"
    record = load_json(path)
    if record is None:
        return
    bench = load_json(ROOT / "BENCHMARK.json") or {}
    spread = (load_json(HERE / "spread.json") or {}).get("workloads", {}).get(workload, {}).get(
        "metrics", {})
    record["provenance"] = {**provenance(seed), **record.pop("build", {})}
    for spec in bench.get("end_to_end", []):
        metric = record.get("end_to_end", {}).get(spec["name"])
        if metric is None:
            continue
        metric["bound"] = spec["bound"]
        metric["better"] = spec["better"]
        measured = spread.get(spec["name"])
        metric["spread_measured"] = None if measured is None else measured["spread"]
    path.write_text(json.dumps(record, indent=2) + "\n")


def run(binary, workload, seed, seconds, trace):
    """One workload run; prints its report and result line, returns exit status."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", str(OUT)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"haxbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        log(f"haxbench: {workload} exited {done.returncode} without a result")
        return done.returncode or 4
    expected = {m["name"] for m in (load_json(ROOT / "BENCHMARK.json") or {}).get(
        "per_layer" if trace else "end_to_end", [])}
    if expected and set(result["metrics"]) != expected:
        log(f"haxbench: {workload} metrics differ from BENCHMARK.json:",
            sorted(set(result["metrics"]) ^ expected))
        return 5
    annotate_record(workload, seed, trace)
    print("\n".join(lines), flush=True)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    statuses = {w: run(binary, w, args.seed, args.seconds, args.trace) for w in workloads}
    if args.workload == "all":
        failed = [w for w, s in statuses.items() if s != 0]
        print(f"haxbench: {len(workloads) - len(failed)}/{len(workloads)} workloads passed"
              + (f"; failed: {', '.join(failed)}" if failed else ""))
        return 1 if failed else 0
    return statuses[args.workload]


if __name__ == "__main__":
    sys.exit(main())
