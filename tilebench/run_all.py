"""Run every workload over several seeds and report medians and spreads.

    python3 tilebench/run_all.py                                 # one seed, untraced and traced
    python3 tilebench/run_all.py --seeds 10 --first-seed 301     # a set for the spread check

Each run is its own `run.py` process, one after another.  For every
end-to-end metric the summary gives the median over the seeds, the
quartiles, and the spread: the distance between the quartiles as a share of
the median, which BENCHMARK.json's bound must exceed.  One traced run per
workload (the first seed) gives the per-layer metrics.  The summary is also
written to tilebench/out/summary.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--first-seed", type=int, default=1, help="seeds run from here up")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    workloads = [w["name"] for w in SPEC["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary = {}
    for workload in workloads:
        results = [run(workload, seed, 0) for seed in seeds]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": {},
        }
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        print(f"{workload}: correct={entry['correct']} failed/attempted={shares}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            entry["metrics"][name] = {"values": values, "median": median, "spread": share}
            flag = "" if name == "setup_s" or share < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:12} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {share:6.2%} (bound {bounds[name]:.0%}){flag}")
        traced = run(workload, args.first_seed, 1)
        entry["per_layer"] = traced["metrics"]
        for name, metric in traced["metrics"].items():
            print(f"    {name:28} {metric['value']:14.6g} {metric['unit']}")
        summary[workload] = entry
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
