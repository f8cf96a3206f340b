"""The column sweep over a spliced lookup-table string.

The sweep answers what a width-1 automaton walking the table once, left to
right, would find: count entry markers until the requested address matches,
count that entry's sub-entries, count the entries remaining before the table's
middle, then count back down through the mirrored half and pick out the
selected mirrored sub-entry span.  Its `SweepRecord` is the one record of a
lookup: `lookup.trace_lookup` hands it out as it is, and `lookup.render_trace`
labels the table's columns from it.

`sweep` computes that answer by binary search over the marker columns that
`TableIndex` collects once per table, as two `array('i')` columns, so an index
holds no boxed int per marker.  The '#' column is filled one run of bare
entries at a time, since most entries of a table are bare.  The
column-by-column walk itself lives in the tests (`tests/oracles.py`), which
check `sweep` against it.
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
    """One table's marker columns: every '#' and ';', and the middle.

    `hashes` and `semis` are `array('i')`s of ascending columns, never built
    through a list: `semis` one match at a time, `hashes` one run of bare
    entries at a time (`_hash_columns`).  `bisect` and slicing read them as
    they would lists, at the cost of boxing each item `bisect` reads.
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
        self.hashes = _hash_columns(table)
        self.semis = array("i", map(re.Match.start, re.finditer(";", table)))
        # hashes[:entries] mark the entries, hashes[mirror:] their mirrored copies
        self.entries = bisect_left(self.hashes, lt)
        self.mirror = bisect_right(self.hashes, gt)


def _hash_columns(table: str) -> array:
    """The columns of every '#' in `table`, ascending, collected one run of
    bare entries at a time: where a run alternates '#' and blank, as spliced
    bare entries do, its markers are every other column from its first to
    its last; any other run is scanned marker by marker."""
    hashes = array("i")
    rfind, count = table.rfind, table.count
    # a '#' and the run of '#' and blank columns after it: a single-character
    # repeat, so the scan keeps no backtracking stack however long the run
    for run in re.finditer("#[# ]*", table):
        first, hi = run.span()
        last = rfind("#", first, hi)
        # (last - first) / 2 disjoint "# " pairs fill the columns from `first`
        # to `last` only if those alternate '#' and blank
        if count("# ", first, last) * 2 == last - first:
            hashes.extend(range(first, last + 1, 2))
        else:
            hashes.extend(map(re.Match.start, re.compile("#").finditer(table, first, hi)))
    return hashes


def sweep(index: TableIndex, addr: int, b: int) -> SweepRecord:
    """Sweep `index` for entry `addr` with random bits `b`."""
    if not index.well_formed:
        return SweepRecord(E_MALFORMED)
    hashes, semis, entries = index.hashes, index.semis, index.entries
    if not 0 <= addr < entries:
        return SweepRecord(E_ADDR_RANGE)
    middle_lt, middle_gt = index.middle
    match = hashes[addr]
    match_end = hashes[addr + 1] if addr + 1 < entries else middle_lt
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
    if copy >= len(hashes):  # the mirrored half lacks this entry's copy
        return SweepRecord(E_MALFORMED)
    mirror_lo = (hashes[copy - 1] if m > 0 else middle_gt) + 2
    mirror_hi = hashes[copy]
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
