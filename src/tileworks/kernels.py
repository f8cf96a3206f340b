"""The column sweep over a spliced lookup-table string.

The sweep answers what a width-1 automaton walking the table once, left to
right, would find: count entry markers until the requested address matches,
count that entry's sub-entries, count the entries remaining before the table's
middle, then count back down through the mirrored half and pick out the
selected mirrored sub-entry span.

`sweep` computes that answer with numpy from precomputed marker positions.
`_sweep_loop` is the column-by-column walk itself, kept as the reference the
tests compare `sweep` against; the package never calls it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

BLANK, ZERO, ONE, HASH, SEMI, COMMA, LT, GT, PCT = range(9)

SYMBOLS = " 01#;,<>%"
_TRANSLATE = bytes.maketrans(SYMBOLS.encode("ascii"), bytes(range(9)))

# status values
OK = 0
E_ADDR_RANGE = 1
E_EMPTY_ENTRY = 2
E_MALFORMED = 3

# scalar record slots
(
    S_STATUS,
    S_MATCH,
    S_MATCH_END,
    S_N,
    S_M,
    S_P,
    S_MIDDLE_LT,
    S_MIDDLE_GT,
    S_MIRROR_LO,
    S_MIRROR_HI,
    S_SEL_LO,
    S_SEL_HI,
) = range(12)

RECORD_SIZE = 12


def encode_symbols(table: str) -> np.ndarray:
    """Map the table alphabet ' 01#;,<>%' onto uint8 codes 0..8."""
    raw = table.encode("ascii").translate(_TRANSLATE)
    return np.frombuffer(raw, dtype=np.uint8).copy()


def _malformed() -> np.ndarray:
    """The record of a table that fails a structural check: only the status is set."""
    out = np.full(RECORD_SIZE, -1, dtype=np.int64)
    out[S_STATUS] = E_MALFORMED
    return out


def _sweep_loop(codes, addr, b):
    """Reference sweep, one column at a time; tests check `sweep` against it.

    The package never calls this: on counter4's table it is about a thousand
    times slower than `sweep`.
    """
    ncols = codes.shape[0]
    # structure first: a leading '>' and the spliced '< % % >' middle,
    # seven columns from the first '<'
    if ncols == 0 or codes[0] != GT:
        return _malformed()
    middle_lt = 0
    while middle_lt < ncols and codes[middle_lt] != LT:
        middle_lt += 1
    middle_gt = middle_lt + 6
    if (
        middle_gt >= ncols
        or codes[middle_lt + 2] != PCT
        or codes[middle_lt + 4] != PCT
        or codes[middle_gt] != GT
    ):
        return _malformed()

    # phase 1: walk to the marker of entry `addr`
    out = np.full(RECORD_SIZE, -1, dtype=np.int64)
    entry = -1
    match = -1
    for col in range(middle_lt):
        if codes[col] == HASH:
            entry += 1
            if entry == addr:
                match = col
                break
    if match < 0:
        out[S_STATUS] = E_ADDR_RANGE
        return out
    out[S_MATCH] = match

    # count sub-entries up to the end of the matched entry
    n = 0
    payload = False
    col = match + 1
    while codes[col] != HASH and codes[col] != LT:
        c = codes[col]
        if c != BLANK:
            payload = True
            if c == SEMI:
                n += 1
        col += 1
    match_end = col
    if payload:
        n += 1
    out[S_MATCH_END] = match_end
    out[S_N] = n

    # count entries left before the middle
    m = 0
    for col in range(match_end, middle_lt):
        if codes[col] == HASH:
            m += 1
    out[S_M] = m
    out[S_MIDDLE_LT] = middle_lt
    out[S_MIDDLE_GT] = middle_gt

    if n == 0:
        out[S_STATUS] = E_EMPTY_ENTRY
        return out
    p = b % n
    out[S_P] = p

    # phase 2: count down m entry markers past the middle, landing on the
    # mirrored copy of the matched entry
    mirror_lo = -1
    if m == 0:
        col = middle_gt + 1
        while col < ncols and codes[col] == BLANK:
            col += 1
        mirror_lo = col
    else:
        seen = 0
        col = middle_gt + 1
        while col < ncols:
            if codes[col] == HASH:
                seen += 1
                if seen == m:
                    col += 1
                    while col < ncols and codes[col] == BLANK:
                        col += 1
                    mirror_lo = col
                    break
            col += 1
    if mirror_lo < 0 or mirror_lo >= ncols:
        return _malformed()
    out[S_MIRROR_LO] = mirror_lo
    col = mirror_lo
    while col < ncols and codes[col] != HASH:
        col += 1
    if col >= ncols:
        return _malformed()
    out[S_MIRROR_HI] = col
    mirror_hi = col

    # skip p sub-entry separators inside the mirrored entry
    sel_lo = mirror_lo
    if p > 0:
        seen = 0
        col = mirror_lo
        while col < mirror_hi:
            if codes[col] == SEMI:
                seen += 1
                if seen == p:
                    col += 1
                    while col < mirror_hi and codes[col] == BLANK:
                        col += 1
                    sel_lo = col
                    break
            col += 1
    col = sel_lo
    while col < mirror_hi and codes[col] != SEMI:
        col += 1
    out[S_SEL_LO] = sel_lo
    out[S_SEL_HI] = col
    out[S_STATUS] = OK
    return out


class TableIndex:
    """One table's symbol codes plus lazily built marker positions."""

    def __init__(self, table: str):
        self.codes = encode_symbols(table)

    @cached_property
    def _markers(self):
        codes = self.codes
        hashes = np.flatnonzero(codes == HASH)
        semis = np.flatnonzero(codes == SEMI)
        lts = np.flatnonzero(codes == LT)
        if codes.shape[0] == 0 or codes[0] != GT or lts.shape[0] == 0:
            return None
        middle_lt = int(lts[0])
        middle_gt = middle_lt + 6  # spliced '< % % >' spans seven columns
        if (
            middle_gt >= codes.shape[0]
            or codes[middle_gt] != GT
            or codes[middle_lt + 2] != PCT
            or codes[middle_lt + 4] != PCT
        ):
            return None
        left = hashes[hashes < middle_lt]
        right = hashes[hashes > middle_gt]
        return hashes, semis, middle_lt, middle_gt, left, right


def sweep(index: TableIndex, addr: int, b: int) -> np.ndarray:
    """Sweep `index` for entry `addr` with random bits `b`; returns the 12-slot record."""
    markers = index._markers
    if markers is None:
        return _malformed()
    out = np.full(RECORD_SIZE, -1, dtype=np.int64)
    _, semis, middle_lt, middle_gt, left, right = markers
    if addr < 0 or addr >= left.shape[0]:
        out[S_STATUS] = E_ADDR_RANGE
        return out
    match = int(left[addr])
    match_end = int(left[addr + 1]) if addr + 1 < left.shape[0] else middle_lt
    out[S_MATCH] = match
    out[S_MATCH_END] = match_end
    out[S_MIDDLE_LT] = middle_lt
    out[S_MIDDLE_GT] = middle_gt

    lo_i, hi_i = np.searchsorted(semis, [match, match_end])
    if match_end - match <= 2:  # adjacent real symbols sit two columns apart
        n = 0
    else:
        n = int(hi_i - lo_i) + 1
    out[S_N] = n
    m = left.shape[0] - 1 - addr
    out[S_M] = m
    if n == 0:
        out[S_STATUS] = E_EMPTY_ENTRY
        return out
    p = b % n
    out[S_P] = p

    if m >= right.shape[0]:  # the mirrored half lacks this entry's copy
        return _malformed()
    mirror_lo = (int(right[m - 1]) if m > 0 else middle_gt) + 2
    mirror_hi = int(right[m])
    out[S_MIRROR_LO] = mirror_lo
    out[S_MIRROR_HI] = mirror_hi

    lo_i, hi_i = np.searchsorted(semis, [mirror_lo, mirror_hi])
    inner = semis[lo_i:hi_i]
    sel_lo = mirror_lo if p == 0 else int(inner[p - 1]) + 2
    sel_hi = mirror_hi if p >= inner.shape[0] else int(inner[p])
    out[S_SEL_LO] = sel_lo
    out[S_SEL_HI] = sel_hi
    out[S_STATUS] = OK
    return out


def active_kernel_name() -> str:
    """Name of the sweep implementation, as printed and recorded in reports."""
    return "numpy"
