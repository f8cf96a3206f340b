"""Table lookup: a traced kernel sweep and an independent direct parser.

`trace_lookup` answers an (address, random bits) query by sweeping the
spliced table exactly the way the construction's internal machinery would:
match the entry by counting markers, count sub-entries, count the remaining
entries, then count back down through the mirrored half and read the selected
mirrored sub-entry, whose fields come out in W,S,E,N order with forward bit
fields (the mirror un-reverses them).  It hands out the sweep's own
`kernels.SweepRecord`, which `render_trace` labels column by column.

`direct_lookup` never touches the table: it indexes the raw entries string
and parses the requested sub-entry in place.  The two routes exist to check
each other and are kept deliberately independent.  Both give a sub-entry as
its tuple of output pads in N,E,S,W side order; neither reads the address map.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .atam import DIRECTIONS, Pad, WorkbenchError
from .encoding import BLANK, CompiledSystem, DecodeError, GlueOrdering, decode_pad


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


class EntryFormatError(LookupError_):
    pass


class TableFormatError(LookupError_):
    pass


@dataclass(frozen=True)
class LookupOutcome:
    """`pads`, the selected sub-entry's output pads in N,E,S,W side order."""

    pads: tuple[Pad, ...]
    selected_index: int


def parse_entry(entry: str, ordering: GlueOrdering) -> tuple[tuple[Pad, ...], ...]:
    """Parse one raw entry ('#' plus payload) into its sub-entries' pad tuples."""
    if not entry.startswith("#"):
        raise EntryFormatError(f"an entry starts with '#', got {entry[:8]!r}")
    payload = entry[1:]
    if any(c == "#" for c in payload):
        raise EntryFormatError("an entry holds no '#' past its marker")
    if payload == "":
        return ()
    subs = []
    for chunk in payload.split(";"):
        fields = chunk.split(",")
        if len(fields) != 4:
            raise EntryFormatError(
                f"a sub-entry has four comma-separated fields, got {chunk!r}"
            )
        pads = []
        for field_text, direction in zip(fields, DIRECTIONS):
            if field_text == "":
                continue
            try:
                pad = decode_pad(field_text[::-1], ordering)  # fields are reversed
            except DecodeError as exc:
                raise EntryFormatError(f"bad pad field {field_text!r}: {exc}") from exc
            if pad.direction is not direction:
                raise EntryFormatError(
                    f"field for side {direction.name} decodes to side {pad.direction.name}"
                )
            pads.append(pad)
        subs.append(tuple(pads))
    return tuple(subs)


def direct_lookup(cs: CompiledSystem, addr: int, p: int) -> tuple[Pad, ...]:
    """Oracle route: parse sub-entry `p` of entry `addr` straight from the entries string."""
    payloads = cs.entry_payloads()
    if addr < 0 or addr >= len(payloads):
        raise AddressRangeError(
            f"address {addr} out of range; table has {len(payloads)} entries"
        )
    subs = parse_entry("#" + payloads[addr], cs.glues)
    if not subs:
        raise EmptyEntryError(f"entry {addr} is bare; no tile attaches there")
    if not 0 <= p < len(subs):
        raise SelectionError(f"sub-entry index {p} out of range for {len(subs)} sub-entries")
    return subs[p]


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

    A span's decoded pads are kept in `cs.sub_entries`, so each selected
    sub-entry is decoded once per compiled system, whatever bits select it.
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
    span = (rec.sel_lo, rec.sel_hi)
    pads = cs.sub_entries.get(span)
    if pads is None:
        pads = cs.sub_entries[span] = _mirror_field_pads(cs, *span)
    return LookupOutcome(pads, rec.n - 1 - rec.p), rec


def selection_counts(cs: CompiledSystem, addr: int, width: int | None = None) -> dict[int, int]:
    """How often each original sub-entry index gets picked over all bit strings."""
    width = cs.random_width if width is None else width
    counts: dict[int, int] = {}
    for b in range(2**width):
        outcome, _ = trace_lookup(cs, addr, format(b, f"0{width}b"))
        counts[outcome.selected_index] = counts.get(outcome.selected_index, 0) + 1
    return counts


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
