"""The column sweep over a spliced lookup-table string.

The sweep answers what a width-1 automaton walking the table once, left to
right, would find: count entry markers until the requested address matches,
count that entry's sub-entries, count the entries remaining before the table's
middle, then count back down through the mirrored half and pick out the
selected mirrored sub-entry span.  Its `SweepRecord` is the one record of a
lookup: `lookup.trace_lookup` hands it out as it is, and `lookup.render_trace`
labels the table's columns from it.

`sweep` computes that answer by binary search over the markers that
`TableIndex` collects once per table: the ';' columns as an `array('i')`, and
the '#' markers as runs of markers two columns apart, one pair of ints per
run, since most entries of a table are bare and spliced bare entries
alternate '#' and blank.  The column-by-column walk itself lives in the tests
(`tests/oracles.py`), which check `sweep` against it.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from typing import NamedTuple

# status values
OK = 0
E_ADDR_RANGE = 1
E_EMPTY_ENTRY = 2
E_MALFORMED = 3


class SweepRecord(NamedTuple):
    """What one sweep found, in table columns; a field it did not reach stays -1."""

    status: int
    match: int = -1
    match_end: int = -1
    n: int = -1  # sub-entries of the matched entry
    m: int = -1  # entries after it, before the middle
    p: int = -1  # selected mirrored sub-entry: bits mod n
    middle_lt: int = -1
    middle_gt: int = -1
    mirror_lo: int = -1
    mirror_hi: int = -1
    sel_lo: int = -1
    sel_hi: int = -1


class TableIndex:
    """One table's markers: every '#' and ';', and the middle.

    `semis` is an `array('i')` of the ';' columns, ascending.  The '#'
    markers are kept as runs of markers two columns apart (`_hash_runs`):
    run r starts at column `firsts[r]` with marker `starts[r]`, and `starts`
    ends with the marker count, `markers`.  `hash_column(k)` is the column of
    marker k.
    """

    def __init__(self, table: str):
        lt = table.find("<")
        gt = lt + 6  # the spliced '< % % >' middle spans seven columns
        self.well_formed = (
            table.startswith(">")
            and lt >= 0
            and gt < len(table)
            and table[gt] == ">"
            and table[lt + 2] == "%"
            and table[lt + 4] == "%"
        )
        self.middle = (lt, gt)
        self.firsts, self.starts = _hash_runs(table)
        self.markers = self.starts[-1]
        self.semis = array("i", map(re.Match.start, re.finditer(";", table)))
        # markers [0, entries) mark the entries, [mirror, markers) their mirrored copies
        self.entries = table.count("#", 0, max(lt, 0))
        self.mirror = table.count("#", 0, gt + 1)

    def hash_column(self, k: int) -> int:
        r = bisect_right(self.starts, k) - 1
        return self.firsts[r] + 2 * (k - self.starts[r])


def _hash_runs(table: str) -> tuple[array, array]:
    """`TableIndex`'s '#' runs, from one match per run of bare entries: where
    a match alternates '#' and blank, as spliced bare entries do, its markers
    are every other column from its first to its last; any other match is
    split marker by marker."""
    firsts, starts = array("i"), array("i")
    count, last = 0, -3  # markers so far, and the column of the last one
    # a '#' and the '#' and blank columns after it: a single-character
    # repeat, so the scan keeps no backtracking stack however long the run
    for run in re.finditer("#[# ]*", table):
        lo, hi = run.span()
        end = table.rfind("#", lo, hi)
        # (end - lo) / 2 disjoint "# " pairs fill the columns from `lo` to
        # `end` only if those alternate '#' and blank
        if table.count("# ", lo, end) * 2 == end - lo:
            spans = [(lo, end)]
        else:
            spans = [(m.start(), m.start()) for m in re.compile("#").finditer(table, lo, hi)]
        for first, end in spans:
            if first != last + 2:  # not two columns after the last marker
                firsts.append(first)
                starts.append(count)
            count += (end - first) // 2 + 1
            last = end
    starts.append(count)
    return firsts, starts


def sweep(index: TableIndex, addr: int, b: int) -> SweepRecord:
    """Sweep `index` for entry `addr` with random bits `b`."""
    if not index.well_formed:
        return SweepRecord(E_MALFORMED)
    column, semis, entries = index.hash_column, index.semis, index.entries
    if not 0 <= addr < entries:
        return SweepRecord(E_ADDR_RANGE)
    middle_lt, middle_gt = index.middle
    match = column(addr)
    match_end = column(addr + 1) if addr + 1 < entries else middle_lt
    if match_end - match <= 2:  # adjacent real symbols sit two columns apart
        n = 0
    else:
        n = bisect_left(semis, match_end) - bisect_left(semis, match) + 1
    m = entries - 1 - addr
    if n == 0:
        return SweepRecord(
            E_EMPTY_ENTRY, match, match_end, n, m, -1, middle_lt, middle_gt
        )
    p = b % n

    copy = index.mirror + m
    if copy >= index.markers:  # the mirrored half lacks this entry's copy
        return SweepRecord(E_MALFORMED)
    mirror_lo = (column(copy - 1) if m > 0 else middle_gt) + 2
    mirror_hi = column(copy)
    inner = semis[bisect_left(semis, mirror_lo) : bisect_left(semis, mirror_hi)]
    sel_lo = mirror_lo if p == 0 else inner[p - 1] + 2
    sel_hi = mirror_hi if p >= len(inner) else inner[p]
    return SweepRecord(
        OK, match, match_end, n, m, p, middle_lt, middle_gt,
        mirror_lo, mirror_hi, sel_lo, sel_hi,
    )


def active_kernel_name() -> str:
    """Name of the sweep implementation, as printed and recorded in reports."""
    return "python"
