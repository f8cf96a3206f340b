from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path

import tileworks
from tileworks.corpus import counter
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

# "> # 1 < x" has a '<' but no '< % % >' middle after it; the last
# table's mirrored half lost the copy of entry 0
MALFORMED = (
    "", "< wrong start", "< no leading marker", "> # no middle", "> # 1 < x",
    "> # 1 # < % % > # <",
)


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
    for bad in MALFORMED:
        idx = TableIndex(bad)
        for addr in (0, 1, 5, -1):
            for b in (0, 1):
                _assert_matches_loop(idx, bad, addr, b, bad)


# runs of bare entries in the shapes the index must tell apart: long
# alternating runs, runs broken by one entry, adjacent markers, a run that
# ends at the middle, doubled blanks, and blanks before and after a run
RUN_SHAPES = (
    build_table("#" * 5000).symbols,
    build_table("#" * 700 + "1" + "#" * 700).symbols,
    build_table("##1;0#" * 40 + "#" * 90).symbols,
    "> # # ## # # ###  #",
    "##",
    "#",
    "> # # # #< % % > # # # <",
    "> # # # # < % % > #<",
    "> #  # # #  #   # < % % > #  # <",
    "  # # #  ",
    "> # # # 1 # # #",
    "# ;# # #; # #",
)


def test_index_runs_expand_to_a_character_scan(compiled, lone_seed):
    tables = [cs.table.symbols for cs in (*compiled.values(), compile_system(lone_seed))]
    for table in (*tables, *MALFORMED, *RUN_SHAPES):
        idx = TableIndex(table)
        hashes = [i for i, c in enumerate(table) if c == "#"]
        for column in (idx.firsts, idx.starts, idx.semis):
            assert type(column) is array and column.typecode == "i", table[:20]
        assert idx.semis.tolist() == [i for i, c in enumerate(table) if c == ";"], table[:20]
        # the runs are the maximal stretches of markers two columns apart
        breaks = sum(b - a != 2 for a, b in zip(hashes, hashes[1:]))
        assert len(idx.firsts) == (breaks + 1 if hashes else 0), table[:20]
        assert idx.markers == idx.starts[-1] == len(hashes), table[:20]
        assert [idx.hash_column(k) for k in range(idx.markers)] == hashes, table[:20]
        lt, gt = idx.middle
        assert idx.entries == bisect_left(hashes, lt), table[:20]
        assert idx.mirror == bisect_right(hashes, gt), table[:20]


def test_compiled_index_memory():
    tas = counter(4)
    tracemalloc.start()
    try:
        cs = compile_system(tas)
        cs.table.index
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    index = cs.table.index
    assert index.markers + len(index.semis) == 29814
    assert len(index.firsts) == 98
    # about 0.13 MiB, mostly the table itself: the index holds one pair of
    # ints per run of markers; one int array item per marker held about
    # 0.25 MiB, and one boxed int per marker about 1.2 MiB
    assert held < 3 * 2**16
    tracemalloc.start()
    try:
        TableIndex(cs.table.symbols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # building the index peaks at about 3.5 KiB; filling an int array item per
    # marker peaked at about 0.12 MiB, and a scan whose regex keeps a
    # backtracking entry per repeat, such as "#(?: #)*", above 0.5 MiB
    assert peak < 2**13


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
    for bad in MALFORMED:
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
