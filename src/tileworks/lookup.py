"""Table lookup: a traced kernel sweep and an independent direct parser.

`trace_lookup` answers an (address, random bits) query by sweeping the
spliced table exactly the way the construction's internal machinery would:
match the entry by counting markers, count sub-entries, count the remaining
entries, then count back down through the mirrored half and read the selected
mirrored sub-entry, whose fields come out in W,S,E,N order with forward bit
fields (the mirror un-reverses them).

`direct_lookup` never touches the table: it indexes the raw entries string
and parses the requested sub-entry in place.  The two routes exist to check
each other and are kept deliberately independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .atam import DIRECTIONS, Pad, WorkbenchError
from .encoding import CompiledSystem, DecodeError, GlueOrdering, decode_pad


BLANK_CHAR = " "


class LookupError_(WorkbenchError):
    pass


class AddressRangeError(LookupError_):
    pass


class EmptyEntryError(LookupError_):
    def __init__(self, message: str, trace: "PhaseTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class SelectionError(LookupError_):
    pass


class EntryFormatError(LookupError_):
    pass


class TableFormatError(LookupError_):
    pass


@dataclass(frozen=True)
class SubEntry:
    """Output pads of one attachable tile, sorted in N,E,S,W side order."""

    pads: tuple[Pad, ...]


@dataclass(frozen=True)
class LookupOutcome:
    sub_entry: SubEntry
    tile_candidates: tuple[int, ...]
    selected_index: int


@dataclass(frozen=True)
class PhaseTrace:
    """Scalar record of one sweep; column annotations are rendered on demand."""

    addr: int
    bits: str
    match_col: int
    match_end: int
    sub_entries: int  # n
    remaining_entries: int  # m
    selection: int  # p = bits mod n
    middle_span: tuple[int, int]
    mirror_span: tuple[int, int]
    selected_span: tuple[int, int]
    selected_index: int  # in original sub-entry order: n - 1 - p


def parse_entry(entry: str, ordering: GlueOrdering) -> tuple[SubEntry, ...]:
    """Parse one raw entry ('#' plus payload) into its sub-entries."""
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
        subs.append(SubEntry(tuple(pads)))
    return tuple(subs)


def direct_lookup(cs: CompiledSystem, addr: int, p: int) -> SubEntry:
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
) -> tuple[LookupOutcome, PhaseTrace]:
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
    trace = PhaseTrace(
        addr=addr,
        bits=bits,
        match_col=rec.match,
        match_end=rec.match_end,
        sub_entries=rec.n,
        remaining_entries=rec.m,
        selection=rec.p,
        middle_span=(rec.middle_lt, rec.middle_gt),
        mirror_span=(rec.mirror_lo, rec.mirror_hi),
        selected_span=(rec.sel_lo, rec.sel_hi),
        selected_index=rec.n - 1 - rec.p if rec.status == kernels.OK else -1,
    )
    if rec.status == kernels.E_EMPTY_ENTRY:
        raise EmptyEntryError(
            f"entry {addr} is bare; no tile attaches there", trace=trace
        )
    sub_entry = cs.sub_entries.get(trace.selected_span)
    if sub_entry is None:
        pads = _mirror_field_pads(cs, *trace.selected_span)
        sub_entry = cs.sub_entries[trace.selected_span] = SubEntry(pads)
    entry = cs.addresses.get(addr)
    candidates = entry.tiles if entry is not None else ()
    outcome = LookupOutcome(sub_entry, candidates, trace.selected_index)
    return outcome, trace


def selection_counts(cs: CompiledSystem, addr: int, width: int | None = None) -> dict[int, int]:
    """How often each original sub-entry index gets picked over all bit strings."""
    width = cs.random_width if width is None else width
    counts: dict[int, int] = {}
    for b in range(2**width):
        outcome, _ = trace_lookup(cs, addr, format(b, f"0{width}b"))
        counts[outcome.selected_index] = counts.get(outcome.selected_index, 0) + 1
    return counts


def render_trace(cs: CompiledSystem, trace: PhaseTrace, limit: int | None = None) -> str:
    """Human-readable sweep: one line per column with phase and counter labels."""
    symbols = cs.table.symbols
    match, match_end = trace.match_col, trace.match_end
    mid_lt, mid_gt = trace.middle_span
    mir_lo, mir_hi = trace.mirror_span
    sel_lo, sel_hi = trace.selected_span
    lines = [
        f"addr={trace.addr} bits={trace.bits} n={trace.sub_entries} "
        f"m={trace.remaining_entries} p={trace.selection} "
        f"selected_index={trace.selected_index}"
    ]
    entries_seen = 0
    count_down = trace.remaining_entries
    total = len(symbols) if limit is None else min(limit, len(symbols))
    for col in range(total):
        sym = symbols[col]
        if sym == BLANK_CHAR:
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
