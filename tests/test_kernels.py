from __future__ import annotations

import numpy as np

from tileworks.encoding import build_table, compile_system
from tileworks.kernels import (
    E_ADDR_RANGE,
    E_EMPTY_ENTRY,
    E_MALFORMED,
    OK,
    RECORD_SIZE,
    S_N,
    S_P,
    S_STATUS,
    TableIndex,
    _sweep_loop,
    encode_symbols,
    sweep,
)


def _assert_matches_loop(idx, addr, b, label):
    got = sweep(idx, addr, b)
    want = _sweep_loop(idx.codes, addr, b)
    assert got.shape == (RECORD_SIZE,)
    assert np.array_equal(got, want), (label, addr, b, got, want)


def test_symbol_codes_cover_alphabet():
    codes = encode_symbols(" 01#;,<>%")
    assert codes.tolist() == list(range(9))
    assert codes.dtype == np.uint8


def test_sweep_matches_reference_loop_across_corpus(compiled, lone_seed):
    for cs in (*compiled.values(), compile_system(lone_seed)):
        idx = cs.table.index
        probe_addrs = sorted(cs.addresses)[:8] + [0, cs.entry_count - 1, cs.entry_count, -1]
        for addr in probe_addrs:
            for b in range(5):
                _assert_matches_loop(idx, addr, b, cs.source.name)


def test_sweep_matches_reference_loop_on_malformed_tables():
    # "> # 1 < x" has a '<' but no '< % % >' middle after it; the last
    # table's mirrored half lost the copy of entry 0
    for bad in ("", "< wrong start", "> # no middle", "> # 1 < x", "> # 1 # < % % > # <"):
        idx = TableIndex(bad)
        for addr in (0, 1, 5, -1):
            for b in (0, 1):
                _assert_matches_loop(idx, addr, b, bad)


def test_sweep_statuses(compiled):
    cs = compiled["elbow"]
    idx = cs.table.index
    assert sweep(idx, 15, 0)[S_STATUS] == OK
    assert sweep(idx, 0, 0)[S_STATUS] == E_EMPTY_ENTRY
    assert sweep(idx, 5000, 0)[S_STATUS] == E_ADDR_RANGE
    assert sweep(idx, -1, 0)[S_STATUS] == E_ADDR_RANGE


def test_selection_arithmetic(compiled):
    cs = compiled["nondet_elbow"]
    idx = cs.table.index
    for b in range(16):
        rec = sweep(idx, 1948, b)
        assert rec[S_N] == 2
        assert rec[S_P] == b % 2


def test_malformed_tables_flagged():
    for bad in (
        "",
        "< no leading marker",
        "> # no middle",
        "> # 1 < x",
        "> # 1 # < % % > # <",
    ):
        idx = TableIndex(bad)
        assert sweep(idx, 0, 0)[S_STATUS] == E_MALFORMED
    # a well-formed tiny table for contrast
    good = build_table("#a,b,c,d#")
    assert sweep(good.index, 0, 0)[S_STATUS] == OK
