"""The benchmark's checks reject wrong answers, and every workload runs small.

    python3 -m pytest tilebench/tests -q
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads
from probe import Probe

HERE = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tw():
    return run.Tileworks(HERE.parent / "src")


def operations(tw, workload, seed=1):
    return workload.setup(tw, random.Random(seed))


def run_op(tw, op):
    """Run one operation under a capturing probe, as a round does."""
    probe = Probe(tw)
    probe.install(timed=False)
    try:
        result = op.run()
    finally:
        probe.uninstall()
    return result, probe.drain()


def test_reference_counts():
    assert oracles.young_counts(8) == (66, 119)
    assert oracles.young_counts(25) == (9295, 32094)
    assert [oracles.pascal_parity(x, 3) for x in range(5)] == [1, 0, 0, 0, 1]
    assert oracles.young_partition([(0, 0), (1, 0), (0, 1)]) == (2, 1)
    assert oracles.young_partition([(0, 0), (0, 1), (0, 2), (1, 0)]) == (2, 1, 1)
    assert oracles.young_partition([(0, 0), (1, 1)]) is None
    assert oracles.young_partition([(0, 0), (1, 0), (0, 1), (1, 1), (1, 2)]) is None


def test_flipped_verdict_is_rejected(tw):
    wl = workloads.CheckLc(bound=6)
    for op in operations(tw, wl):
        verdict, captured = run_op(tw, op)
        assert op.check(verdict, captured) == [], op.label
        flipped = dataclasses.replace(verdict, passed=not verdict.passed)
        assert op.check(flipped, captured), op.label


def test_moved_witness_is_rejected(tw):
    wl = workloads.CheckLc(bound=6)
    for op in operations(tw, wl)[2:]:
        verdict, captured = run_op(tw, op)
        w = verdict.witness
        moved = dataclasses.replace(w, pos=(w.pos[0] + 1, w.pos[1]))
        wrong = dataclasses.replace(verdict, witness=moved)
        assert op.check(wrong, captured), op.label


def test_partition_sum_off_by_one_is_rejected(tw):
    wl = workloads.CheckLc(bound=8)
    op = operations(tw, wl)[0]
    verdict, captured = run_op(tw, op)
    (result,) = captured["atam.explore"]
    key = next(k for k in result.assemblies if len(k) == 8)
    fewer = dataclasses.replace(
        result, assemblies={k: v for k, v in result.assemblies.items() if k != key}
    )
    assert op.check(verdict, {"atam.explore": [fewer]})
    one_edge_short = dataclasses.replace(result, edges=result.edges[:-1])
    assert op.check(verdict, {"atam.explore": [one_edge_short]})
    found = list(result.assemblies)
    name = workloads.tile_name(op.system)
    assert workloads.check_sierpinski_assemblies("s", found, 8, name) == []
    assert workloads.check_sierpinski_assemblies("s", found[:-1], 8, name)
    seed_tile = dict(found[0])[(0, 0)]
    gap = frozenset({((0, 0), seed_tile), ((2, 0), seed_tile)})  # not a Young shape
    assert workloads.check_sierpinski_assemblies("s", found[:-1] + [gap], 8, name)


def test_changed_decoded_tile_is_rejected(tw):
    wl = workloads.Simulate(events=90, runs=1)
    (op,) = operations(tw, wl)
    (run_, decoded), _ = run_op(tw, op)
    assert op.check((run_, decoded), {}) == []
    cells = dict(decoded.items())
    pos = max(cells, key=lambda p: (p[1], p[0]))
    cells[pos] = (cells[pos] + 1) % 17
    changed = tw.atam.Assembly(cells)
    assert op.check((run_, changed), {})
    short = dataclasses.replace(run_, events=run_.events[:-1])
    assert op.check((short, decoded), {})


def test_wrong_sierpinski_tile_is_rejected(tw):
    wl = workloads.Verify(bound=4)
    op = operations(tw, wl)[0]
    report, captured = run_op(tw, op)
    assert op.check(report, captured) == []
    tiles = op.system.tiles
    found = [
        frozenset((pos, tiles[t].name) for pos, t in key)
        for key in captured["atam.explore"][0].assemblies
    ]
    assert workloads.check_sierpinski_assemblies("s", found, 4, str) == []
    inner = next(f for f in found if any(name.startswith("x") for _, name in f))
    cells = dict(inner)
    pos = next(p for p, name in cells.items() if name.startswith("x"))
    cells[pos] = "x" + cells[pos][2] + cells[pos][1]  # same written bit, wrong inputs
    if cells == dict(inner):
        cells[pos] = "x11" if cells[pos] != "x11" else "x00"
    changed = [frozenset(cells.items()) if f is inner else f for f in found]
    assert workloads.check_sierpinski_assemblies("s", changed, 4, str)


def test_every_workload_runs_small(tw):
    small = (
        workloads.CheckLc(bound=8),
        workloads.Simulate(events=60, runs=2),
        workloads.Verify(bound=5, small_bound=6),
    )
    probe = Probe(tw)
    for wl in small:
        for timed in (False, True):
            result = run.run_round(tw, wl, random.Random(3), probe, timed)
            assert result["problems"] == [], wl.name
            if wl.name == "verify-sierpinski":
                (failure,) = result["failed"]
                assert "five_tile" in failure and "ThreeProbeError" in failure
            else:
                assert result["failed"] == []
    metrics = probe.layer_metrics()
    assert metrics["atam.explore.calls"][0] > 0
    assert metrics["macro.decode.calls"][0] > 0
    assert metrics["kernels.sweep.calls"][0] > 0
    # every wrapper is gone again
    assert tw.macro.run_macro.__module__ == "tileworks.macro"
    assert tw.blocks.MacroAssembly.with_block.__qualname__ == "MacroAssembly.with_block"


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-sierpinski"]
    cmd += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
