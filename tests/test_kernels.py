from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import tileworks
from tileworks.encoding import build_table, compile_system
from tileworks.kernels import (
    E_ADDR_RANGE,
    E_EMPTY_ENTRY,
    E_MALFORMED,
    OK,
    TableIndex,
    sweep,
)

from .oracles import ref_sweep


def _assert_matches_loop(idx, table, addr, b, label):
    got = sweep(idx, addr, b)
    want = ref_sweep(table, addr, b)
    assert got._asdict() == want._asdict(), (label, addr, b)
    assert all(type(v) is int for v in got), (label, addr, b, got)


def test_sweep_matches_reference_loop_across_corpus(compiled, lone_seed):
    for cs in (*compiled.values(), compile_system(lone_seed)):
        idx = cs.table.index
        probe_addrs = sorted(cs.addresses)[:8] + [0, cs.entry_count - 1, cs.entry_count, -1]
        for addr in probe_addrs:
            for b in range(5):
                _assert_matches_loop(idx, cs.table.symbols, addr, b, cs.source.name)


def test_sweep_matches_reference_loop_on_malformed_tables():
    # "> # 1 < x" has a '<' but no '< % % >' middle after it; the last
    # table's mirrored half lost the copy of entry 0
    for bad in ("", "< wrong start", "> # no middle", "> # 1 < x", "> # 1 # < % % > # <"):
        idx = TableIndex(bad)
        for addr in (0, 1, 5, -1):
            for b in (0, 1):
                _assert_matches_loop(idx, bad, addr, b, bad)


def test_sweep_statuses(compiled):
    cs = compiled["elbow"]
    idx = cs.table.index
    assert sweep(idx, 15, 0).status == OK
    assert sweep(idx, 0, 0).status == E_EMPTY_ENTRY
    assert sweep(idx, 5000, 0).status == E_ADDR_RANGE
    assert sweep(idx, -1, 0).status == E_ADDR_RANGE


def test_selection_arithmetic(compiled):
    cs = compiled["nondet_elbow"]
    idx = cs.table.index
    for b in range(16):
        rec = sweep(idx, 1948, b)
        assert rec.n == 2
        assert rec.p == b % 2


def test_malformed_tables_flagged():
    for bad in (
        "",
        "< no leading marker",
        "> # no middle",
        "> # 1 < x",
        "> # 1 # < % % > # <",
    ):
        idx = TableIndex(bad)
        assert sweep(idx, 0, 0).status == E_MALFORMED
    # a well-formed tiny table for contrast
    good = build_table("#a,b,c,d#")
    assert sweep(good.index, 0, 0).status == OK


def test_import_leaves_numpy_out():
    # the package has no runtime dependencies; numpy must not creep back in
    code = "import sys, tileworks, tileworks.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(tileworks.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
