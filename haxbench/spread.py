#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

Runs each workload once per seed (untraced), then reports per metric the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json. A spread
above a third of its bound (setup_s excepted) is flagged. Run from the
root of a checkout:

    python3 haxbench/spread.py --seeds 10 [--workloads cold-solve,sim-stream] [--write]

--write stores the table in haxbench/spread.json, which run.py copies into
each run's record next to the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()

    table = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(1, args.seeds + 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
            result = json.loads(done.stdout.splitlines()[-1])
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect or failed run", file=sys.stderr)
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        table[workload] = {}
        for spec in bench["end_to_end"]:
            xs = values[spec["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            steady = spec["name"] == "setup_s" or spread < spec["bound"] / 3
            ok = ok and steady
            table[workload][spec["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": spec["bound"],
                "runs": len(xs)}
            print(f"{workload:13s} {spec['name']:17s} median {med:14.6g} spread {spread:7.4f} "
                  f"bound {spec['bound']:.2f}{'' if steady else '  <-- above bound/3'}",
                  flush=True)
            if args.verbose:
                print("    " + " ".join(f"{x:.6g}" for x in xs), flush=True)
    if args.write:
        # Updates the measured workloads' entries and keeps the others.
        path = HERE / "spread.json"
        doc = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
        doc["about"] = ("Run-to-run spread of the end-to-end metrics: one untraced run per seed; "
                        "spread = (q3 - q1) / median.")
        for workload, metrics in table.items():
            doc["workloads"][workload] = {
                "seeds": [1, args.seeds],
                "seconds": args.seconds, "nproc": os.cpu_count(), "metrics": metrics}
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
