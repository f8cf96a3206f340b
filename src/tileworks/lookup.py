"""Table lookup: the traced kernel sweep and its trace rendering.

`trace_lookup` answers an (address, random bits) query by sweeping the
spliced table exactly the way the construction's internal machinery would:
match the entry by counting markers, count sub-entries, count the remaining
entries, then count back down through the mirrored half and read the selected
mirrored sub-entry, whose fields come out in W,S,E,N order with forward bit
fields (the mirror un-reverses them).  It gives the sub-entry as its tuple of
output pads in N,E,S,W side order, without reading the address map, and hands
out the sweep's own `kernels.SweepRecord`, which `render_trace` labels column
by column.  The tests check it against `tests/oracles.py`'s direct parse
of the entries string, which never reads the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .atam import DIRECTIONS, Pad, WorkbenchError
from .encoding import BLANK, CompiledSystem, DecodeError, decode_pad


class LookupError_(WorkbenchError):
    pass


class AddressRangeError(LookupError_):
    pass


class EmptyEntryError(LookupError_):
    def __init__(self, message: str, trace: kernels.SweepRecord | None = None):
        super().__init__(message)
        self.trace = trace


class SelectionError(LookupError_):
    pass


class TableFormatError(LookupError_):
    pass


@dataclass(frozen=True)
class LookupOutcome:
    """`pads`, the selected sub-entry's output pads in N,E,S,W side order."""

    pads: tuple[Pad, ...]
    selected_index: int


def _mirror_field_pads(cs: CompiledSystem, sel_lo: int, sel_hi: int) -> tuple[Pad, ...]:
    # real symbols occupy even columns; step 2 drops the spliced blanks
    text = cs.table.symbols[sel_lo:sel_hi:2]
    fields = text.split(",")
    if len(fields) != 4:
        raise TableFormatError(f"mirrored sub-entry has {len(fields)} fields: {text!r}")
    pads = []
    # mirrored fields arrive in W,S,E,N order with forward bit fields
    for field_text, direction in zip(fields, reversed(DIRECTIONS)):
        if field_text == "":
            continue
        try:
            pad = decode_pad(field_text, cs.glues)
        except DecodeError as exc:
            raise TableFormatError(f"bad mirrored field {field_text!r}: {exc}") from exc
        if pad.direction is not direction:
            raise TableFormatError(
                f"mirrored field for side {direction.name} decodes to {pad.direction.name}"
            )
        pads.append(pad)
    return tuple(sorted(pads, key=Pad.sort_key))


def trace_lookup(
    cs: CompiledSystem, addr: int, bits: str
) -> tuple[LookupOutcome, kernels.SweepRecord]:
    """Kernel route: sweep the spliced table and decode the selected mirror span.

    Nothing is kept between calls: `macro.BlockAutomaton` asks once per
    (address, sub-entry) and keeps the answer in its `steps`.
    """
    if bits == "" or bits.strip("01"):
        raise SelectionError(f"not a bit string: {bits!r}")
    rec = kernels.sweep(cs.table.index, addr, int(bits, 2))
    if rec.status == kernels.E_ADDR_RANGE:
        raise AddressRangeError(
            f"address {addr} out of range; table has {cs.entry_count} entries"
        )
    if rec.status == kernels.E_MALFORMED:
        raise TableFormatError("table failed the sweep's structural checks")
    if rec.status == kernels.E_EMPTY_ENTRY:
        raise EmptyEntryError(f"entry {addr} is bare; no tile attaches there", trace=rec)
    pads = _mirror_field_pads(cs, rec.sel_lo, rec.sel_hi)
    return LookupOutcome(pads, rec.n - 1 - rec.p), rec


def render_trace(
    cs: CompiledSystem, addr: int, bits: str, rec: kernels.SweepRecord, limit: int | None = None
) -> str:
    """Human-readable sweep `rec` of entry `addr` with `bits`: one line per
    column with phase and counter labels."""
    symbols = cs.table.symbols
    match, match_end = rec.match, rec.match_end
    mid_lt, mid_gt = rec.middle_lt, rec.middle_gt
    mir_lo, mir_hi = rec.mirror_lo, rec.mirror_hi
    sel_lo, sel_hi = rec.sel_lo, rec.sel_hi
    selected = rec.n - 1 - rec.p if rec.status == kernels.OK else -1
    lines = [f"addr={addr} bits={bits} n={rec.n} m={rec.m} p={rec.p} selected_index={selected}"]
    entries_seen = 0
    count_down = rec.m
    total = len(symbols) if limit is None else min(limit, len(symbols))
    for col in range(total):
        sym = symbols[col]
        if sym == BLANK:
            continue
        if sym == "#":
            if col <= match:
                entries_seen += 1
            elif mid_gt < col <= mir_hi:
                count_down -= 1
        if col < match:
            phase = f"seek entries={entries_seen}"
        elif col == match:
            phase = f"match entries={entries_seen}"
        elif col < match_end:
            phase = "count-subs"
        elif col < mid_lt:
            phase = "count-rest"
        elif col <= mid_gt:
            phase = "middle"
        elif col < mir_lo:
            phase = f"countdown m={max(count_down, 0)}"
        elif sel_lo <= col < sel_hi:
            phase = "selected"
        elif col <= mir_hi:
            phase = "mirror"
        else:
            phase = "tail"
        lines.append(f"{col:>7} {sym} {phase}")
    if limit is not None and limit < len(symbols):
        lines.append(f"... ({len(symbols) - limit} more columns)")
    return "\n".join(lines)
