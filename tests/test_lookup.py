from __future__ import annotations

import dataclasses

import pytest

from tileworks import kernels
from tileworks.atam import Direction
from tileworks.lookup import (
    AddressRangeError,
    EmptyEntryError,
    EntryFormatError,
    SelectionError,
    direct_lookup,
    parse_entry,
    render_trace,
    selection_counts,
    trace_lookup,
)

from .oracles import strip_blanks


def mod_select(bits: str, n: int) -> int:
    """The selection index p for a drawn bit string: value(bits) mod n."""
    if n < 1:
        raise SelectionError("selection requires at least one sub-entry")
    if bits == "" or any(c not in "01" for c in bits):
        raise SelectionError(f"not a bit string: {bits!r}")
    return int(bits, 2) % n


def test_mod_select(compiled):
    cs = compiled["nondet_elbow"]
    for b in range(2**cs.random_width):
        bits = format(b, f"0{cs.random_width}b")
        assert trace_lookup(cs, 1948, bits)[1].p == mod_select(bits, 2)
    assert mod_select("0000", 2) == 0
    assert mod_select("0101", 2) == 1
    assert mod_select("111", 5) == 2
    with pytest.raises(SelectionError):
        mod_select("", 2)
    with pytest.raises(SelectionError):
        mod_select("012", 2)
    with pytest.raises(SelectionError):
        mod_select("01", 0)


def test_parse_entry(compiled):
    cs = compiled["elbow"]
    subs = parse_entry("#" + cs.entry_payloads()[15], cs.glues)
    assert len(subs) == 1
    (pad,) = subs[0]
    assert (pad.glue, pad.direction, pad.strength) == ("c", Direction.N, 1)
    assert parse_entry("#", cs.glues) == ()
    with pytest.raises(EntryFormatError):
        parse_entry("no marker", cs.glues)
    with pytest.raises(EntryFormatError):
        parse_entry("#a,b", cs.glues)  # two fields
    with pytest.raises(EntryFormatError):
        parse_entry("##", cs.glues)
    with pytest.raises(EntryFormatError):
        # field decodes to the wrong side slot: E-slot holding an N pad
        parse_entry("#,100010,,", cs.glues)


def test_direct_lookup_routes(compiled):
    cs = compiled["elbow"]
    pads = direct_lookup(cs, 15, 0)
    assert [str(p.glue) for p in pads] == ["c"]
    with pytest.raises(AddressRangeError):
        direct_lookup(cs, 999999, 0)
    with pytest.raises(EmptyEntryError):
        direct_lookup(cs, 0, 0)
    with pytest.raises(SelectionError):
        direct_lookup(cs, 15, 1)


def test_trace_frozen_example(compiled):
    cs = compiled["elbow"]
    outcome, rec = trace_lookup(cs, 15, "0000")
    assert rec.n == 1
    assert rec.m == 1948 - 15
    assert rec.p == 0
    assert outcome.selected_index == 0
    # a lookup answers with a sub-entry, not a tile: the address map names it
    assert [f.name for f in dataclasses.fields(outcome)] == ["pads", "selected_index"]
    assert cs.addresses[15].tiles[outcome.selected_index] == cs.source.tile_index("tR")
    (pad,) = outcome.pads
    assert (pad.glue, pad.direction.name, pad.strength) == ("c", "N", 1)


def test_trace_spans_are_consistent(compiled):
    cs = compiled["nondet_elbow"]
    for bits in ("0000", "0001", "1111"):
        outcome, rec = trace_lookup(cs, 1948, bits)
        assert rec.mirror_lo <= rec.sel_lo <= rec.sel_hi <= rec.mirror_hi
        assert strip_blanks(cs.table.symbols[rec.middle_lt : rec.middle_gt + 1]) == "<%%>"
        assert outcome.selected_index == rec.n - 1 - rec.p


def test_trace_equals_direct_everywhere(compiled):
    for shared in compiled.values():
        cs = dataclasses.replace(shared)  # empty memos; the second pass reads them
        for _ in range(2):
            for addr in sorted(cs.addresses):
                n = len(cs.addresses[addr].tiles)
                for b in range(8):
                    bits = format(b, "03b")
                    outcome, _ = trace_lookup(cs, addr, bits)
                    direct = direct_lookup(cs, addr, outcome.selected_index)
                    assert outcome.pads == direct
                    assert outcome.selected_index == n - 1 - (b % n)


def test_trace_error_statuses(compiled):
    cs = compiled["elbow"]
    with pytest.raises(AddressRangeError):
        trace_lookup(cs, 10**6, "01")
    with pytest.raises(SelectionError):
        trace_lookup(cs, 15, "")
    with pytest.raises(EmptyEntryError) as err:
        trace_lookup(cs, 3, "01")
    assert err.value.trace is not None
    assert err.value.trace.n == 0
    assert err.value.trace.status == kernels.E_EMPTY_ENTRY


def test_nondet_fairness_split(compiled):
    cs = compiled["nondet_elbow"]
    assert cs.random_width == 4
    counts = selection_counts(cs, 1948)
    assert counts == {0: 8, 1: 8}


def test_fairness_bounds_everywhere(compiled):
    for cs in compiled.values():
        for addr in sorted(cs.addresses):
            n = len(cs.addresses[addr].tiles)
            counts = selection_counts(cs, addr, width=4)
            lo, hi = 16 // n, -(-16 // n)
            assert sum(counts.values()) == 16
            assert set(counts) == set(range(n))
            assert all(lo <= c <= hi for c in counts.values())


def test_mirror_half_mirrors(compiled):
    # the two halves of every compiled table are mirror images
    for cs in compiled.values():
        flat = strip_blanks(cs.table.symbols)
        middle = flat.index("<%%>")
        left, right = flat[1:middle], flat[middle + 4 : -1]
        assert left == right[::-1]


def test_render_trace_output(compiled):
    cs = compiled["elbow"]
    _, rec = trace_lookup(cs, 15, "0000")
    text = render_trace(cs, 15, "0000", rec, limit=40)
    lines = text.splitlines()
    assert lines[0] == "addr=15 bits=0000 n=1 m=1933 p=0 selected_index=0"
    assert lines[-1].startswith("... (")
    full = render_trace(cs, 15, "0000", rec).splitlines()
    # the match line reports the marker count: addr 15 is the sixteenth '#'
    assert any(line.endswith("match entries=16") for line in full)
    assert any("selected" in line for line in full)
    assert full[-1].endswith("tail")
