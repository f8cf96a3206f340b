"""Run one tileworks benchmark workload and print its metrics as JSON.

    python3 tilebench/run.py --workload check-lc-sierpinski --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports the package from
`src/`, never from an installed copy, and stops with status 2 when there is
none.  A run is one process on one thread: it imports tileworks once (timed),
then makes a fixed number of rounds.  Each round builds its inputs and
compiles what the verb compiles (set-up), runs the workload's operations
(timed together) and checks every answer (not timed).  Times are taken on
the process CPU clock as well as the wall clock; the metrics use the CPU
clock (see the README for why).  With --trace 0 the last line holds the
end-to-end metrics; with --trace 1 half the rounds run under the timing
probe (untraced, traced, traced, untraced, and so on) and the last line
holds the per-layer metrics.  Details go to tilebench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = (
    "atam", "blocks", "consistency", "corpus", "encoding", "kernels", "lookup", "macro", "verifier",
)
MIN_ROUNDS = 2

sys.path.insert(0, str(HERE))

from probe import Probe  # noqa: E402


class Tileworks:
    """The package and its submodules, imported from this checkout."""

    def __init__(self, src: Path):
        if not (src / "tileworks" / "__init__.py").is_file():
            raise ImportError(f"no tileworks source under {src}")
        sys.path.insert(0, str(src))
        self.package = importlib.import_module("tileworks")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"tileworks.{name}"))
        if Path(self.package.__file__).resolve().parent != (src / "tileworks").resolve():
            raise ImportError(f"tileworks was imported from {self.package.__file__}, not {src}")
        self.WorkbenchError = self.atam.WorkbenchError


def rounds_for(workload, seconds: int) -> int:
    """Rounds per run: fixed by --seconds and the workload, never by the clock.

    Each round keeps some memory (see the kernel-selection leak in the README),
    so a loop that stopped on the clock would make peak RSS depend on machine
    speed.  On the reference machine a run measures about --seconds.
    """
    return max(MIN_ROUNDS, math.ceil(seconds / workload.round_seconds))


def high_water_kb() -> int | None:
    """The process's peak resident set so far (VmHWM), or None where /proc has none."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def traced_round(i: int) -> bool:
    """Rounds 1, 2, 5, 6, ... of a traced run: each traced pair sits between untraced ones."""
    return i % 4 in (1, 2)


def run_round(tw, workload, rng, probe: Probe, timed: bool) -> dict:
    gc.collect()
    probe.install(timed)
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        ops = workload.setup(tw, rng)
    finally:
        probe.uninstall()
    setup_cpu_s, setup_wall_s = time.process_time() - cpu, time.perf_counter() - wall
    probe.drain()
    cpu_s = wall_s = check_s = 0.0
    op_peak_kb = None  # the process's peak as the last operation returned
    check_peak_kb = 0  # how far the checks alone raised the process's peak
    failed, problems = [], []
    for op in ops:
        probe.install(timed)
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            result, error = op.run(), None
        except tw.WorkbenchError as exc:
            result, error = None, exc
        finally:
            cpu_s += time.process_time() - cpu
            wall_s += time.perf_counter() - wall
            probe.uninstall()
        captured = probe.drain()
        op_peak_kb = high_water_kb()
        if error is not None:
            # a failed operation has no answer to check; it counts in `failed`
            failed.append(f"{op.label}: {type(error).__name__}: {error}")
            continue
        start = time.perf_counter()
        problems += [f"{op.label}: {p}" for p in op.check(result, captured)]
        check_s += time.perf_counter() - start
        if op_peak_kb is not None:
            check_peak_kb += high_water_kb() - op_peak_kb
        del result, captured  # free this operation's explorations before the next one

    return {
        "setup_cpu_s": setup_cpu_s,
        "setup_wall_s": setup_wall_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "check_s": check_s,
        "op_peak_kb": op_peak_kb,
        "check_peak_kb": check_peak_kb,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "timed": timed,
    }


def median_of(rounds, key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # one process, one thread: keep numpy's BLAS from starting a pool at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        tw = Tileworks(ROOT / "src")
    except ImportError as exc:
        print(f"tilebench: {exc}", file=sys.stderr)
        return 2
    import_cpu_s, import_wall_s = time.process_time() - cpu, time.perf_counter() - wall
    # the checks' oracles import tileworks, so they come after the timed import
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    workload = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    probe = Probe(tw)
    rounds = []
    for i in range(rounds_for(workload, args.seconds)):
        timed = bool(args.trace) and traced_round(i)
        rounds.append(run_round(tw, workload, rng, probe, timed))
    # the peak as the last operation returned, before its check; where /proc
    # has no VmHWM, the peak of the whole process
    last_peak_kb = rounds[-1]["op_peak_kb"]
    if last_peak_kb is None:
        last_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss_mb = last_peak_kb / 1024

    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failed"]]
    problems = [p for r in rounds for p in r["problems"]]
    if args.trace:
        plain = [r for r in rounds if not r["timed"]]
        traced = [r for r in rounds if r["timed"]]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in probe.layer_metrics().items()}
        overhead = {
            "trace.cpu_s": median_of(traced, "cpu_s"),
            "trace.untraced_cpu_s": median_of(plain, "cpu_s"),
        }
        overhead["trace.overhead_s"] = overhead["trace.cpu_s"] - overhead["trace.untraced_cpu_s"]
        metrics.update({name: {"value": v, "unit": "s"} for name, v in overhead.items()})
    else:
        metrics = {
            "cpu_s": {"value": median_of(rounds, "cpu_s"), "unit": "s"},
            "setup_s": {
                "value": import_cpu_s + median_of(rounds, "setup_cpu_s"),
                "unit": "s",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    kernel = tw.kernels.active_kernel_name()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel": kernel,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
        "import_cpu_s": import_cpu_s,
        "import_wall_s": import_wall_s,
        "median_wall_s": median_of(rounds, "wall_s"),
        "median_cpu_s": median_of(rounds, "cpu_s"),
        "peak_rss_mb": peak_rss_mb,
        "check_peak_kb": sum(r["check_peak_kb"] for r in rounds),
        "rounds": rounds,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(probe.trace_document()) + "\n")

    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    for line in problems:
        print(f"WRONG: {line}", file=sys.stderr)
    print(f"kernel: {kernel}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
