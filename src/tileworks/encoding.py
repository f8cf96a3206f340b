"""Binary encoding of a tile system into a glue lookup table.

Positive-strength glues are ordered with the null glue first; each oriented
pad becomes a fixed-width bit field (glue index, the side's index in two
bits, one strength bit), side combinations that sum to strength 2 become
numeric addresses, and the system becomes a single entries string: one
'#'-marked entry per address value, holding one sub-entry per tile
attachable there, written as the realized entries with runs of bare markers
between them.
The shipped table is the entries string framed by '>' and '<', glued to its
own mirror image around a '<%%>' middle marker, with one blank spliced
between every two symbols.  The resolution is the length of one block edge:
a table copy, a pad field, the spacer zeros, the pad field again and a second
table copy (`tests/oracles.py` builds them).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from . import consistency
from .atam import (
    DIRECTIONS,
    Direction,
    Pad,
    TileSystem,
    WorkbenchError,
)
from .blocks import BlockState, seed_block
from .kernels import TableIndex

BLANK = " "


class EncodingError(WorkbenchError):
    pass


class DecodeError(EncodingError):
    pass


class AddressError(EncodingError):
    pass


class ClassError(WorkbenchError):
    """Raised when compiling a system that fails the local-consistency check."""

    def __init__(self, verdict: consistency.Verdict):
        detail = verdict.witness.describe() if verdict.witness else "unknown"
        super().__init__(f"system is not locally consistent: {detail}")
        self.verdict = verdict


# canonical ordering of two-pad address direction pairs
ADDRESS_PAIR_ORDER: tuple[tuple[Direction, Direction], ...] = (
    (Direction.E, Direction.N),
    (Direction.S, Direction.E),
    (Direction.W, Direction.S),
    (Direction.N, Direction.W),
    (Direction.N, Direction.S),
    (Direction.E, Direction.W),
)


@dataclass(frozen=True)
class GlueOrdering:
    """Positive-strength glue labels in a fixed order, null glue first."""

    labels: tuple[str | None, ...]
    width: int

    @classmethod
    def from_system(cls, tas: TileSystem) -> "GlueOrdering":
        real = sorted(
            {
                side.glue
                for tile in tas.tiles
                for side in (tile.north, tile.east, tile.south, tile.west)
                if side.glue is not None
            }
        )
        labels = (None, *real)
        # width is the bit length of the glue count, i.e. ceil(log2(count + 1))
        return cls(labels, len(labels).bit_length())

    @cached_property
    def _index(self) -> dict[str | None, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, glue: str) -> int:
        try:
            return self._index[glue]
        except KeyError:
            raise EncodingError(f"glue {glue!r} is not in the ordering") from None

    def __contains__(self, glue: str) -> bool:
        return glue in self._index

    @property
    def pad_bits(self) -> int:
        """Width of one encoded pad field: glue index, direction, strength."""
        return self.width + 3


def encode_pad(pad: Pad, ordering: GlueOrdering) -> str:
    """Fixed-width bit field for one oriented pad."""
    idx = ordering.index(pad.glue)
    glue_bits = format(idx, f"0{ordering.width}b")
    strength_bit = "0" if pad.strength == 1 else "1"
    return glue_bits + format(pad.direction, "02b") + strength_bit


def decode_pad(bits: str, ordering: GlueOrdering) -> Pad:
    if len(bits) != ordering.pad_bits or any(c not in "01" for c in bits):
        raise DecodeError(
            f"pad field must be {ordering.pad_bits} bits, got {bits!r}"
        )
    idx = int(bits[: ordering.width], 2)
    if idx == 0:
        raise DecodeError("all-zero glue index denotes the null glue, not a pad")
    if idx >= len(ordering.labels):
        raise DecodeError(f"glue index {idx} out of range")
    direction = DIRECTIONS[int(bits[ordering.width : ordering.width + 2], 2)]
    strength = 1 if bits[-1] == "0" else 2
    return Pad(ordering.labels[idx], direction, strength)


@dataclass(frozen=True)
class Address:
    """Numeric address of one input-pad combination."""

    bits: str
    value: int
    directions: tuple[Direction, ...]


def address_of(pads, ordering: GlueOrdering) -> Address:
    """Address bits for a strength-2 single pad or a canonically ordered pair."""
    pads = tuple(pads)
    if len(pads) == 1:
        (p,) = pads
        if p.strength != 2:
            raise AddressError("a single-pad address needs strength 2")
        bits = "0" * ordering.pad_bits + encode_pad(p, ordering)
        return Address(bits, int(bits, 2), (p.direction,))
    if len(pads) != 2:
        raise AddressError(f"an address takes one or two pads, got {len(pads)}")
    a, b = pads
    if a.strength != 1 or b.strength != 1:
        raise AddressError("a two-pad address needs two strength-1 pads")
    if a.direction is b.direction:
        raise AddressError("two-pad address directions must differ")
    by_dir = {p.direction: p for p in pads}
    for d1, d2 in ADDRESS_PAIR_ORDER:
        if {d1, d2} == set(by_dir):
            first, second = by_dir[d1], by_dir[d2]
            bits = encode_pad(first, ordering) + encode_pad(second, ordering)
            return Address(bits, int(bits, 2), (d1, d2))
    raise AddressError(f"no canonical order for directions {list(by_dir)!r}")


@dataclass(frozen=True)
class AddressEntry:
    """One address value with the tiles attachable there, in tile-list order."""

    address: Address
    pads: tuple[Pad, ...]
    tiles: tuple[int, ...]


def _input_combinations(tile) -> list[tuple[Pad, ...]]:
    """Side combinations of one tile whose strengths sum to exactly 2."""
    positive = tile.pads()
    combos = [(p,) for p in positive if p.strength == 2]
    ones = [p for p in positive if p.strength == 1]
    for i in range(len(ones)):
        for j in range(i + 1, len(ones)):
            combos.append((ones[i], ones[j]))
    return combos


def address_map(tas: TileSystem, ordering: GlueOrdering) -> dict[int, AddressEntry]:
    """Every address the system realizes, with its attachable tiles."""
    entries: dict[int, AddressEntry] = {}
    for tile_index, tile in enumerate(tas.tiles):
        for combo in _input_combinations(tile):
            addr = address_of(combo, ordering)
            existing = entries.get(addr.value)
            if existing is None:
                entries[addr.value] = AddressEntry(addr, combo, (tile_index,))
            elif tile_index not in existing.tiles:
                entries[addr.value] = AddressEntry(
                    existing.address, existing.pads, existing.tiles + (tile_index,)
                )
    return entries


def _sub_entry(tile, address: Address, ordering: GlueOrdering) -> str:
    """Comma-joined N,E,S,W output fields; input sides and null sides stay empty.

    Each populated field is the pad's bit field written in reverse, so the
    mirrored half of the table carries it forward again.
    """
    fields = []
    for d, side in zip(DIRECTIONS, (tile.north, tile.east, tile.south, tile.west)):
        if side.glue is None or d in address.directions:
            fields.append("")
        else:
            fields.append(encode_pad(Pad(side.glue, d, side.strength), ordering)[::-1])
    return ",".join(fields)


def build_entries(
    tas: TileSystem, ordering: GlueOrdering, amap: dict[int, AddressEntry]
) -> str:
    """The entries string: one '#'-marked entry for every address value 0..max of
    `amap`, built as the realized entries in address order, each after the run
    of bare markers below it."""
    parts, last = [], -1
    for value in sorted(amap):
        entry = amap[value]
        subs = [_sub_entry(tas.tiles[t], entry.address, ordering) for t in entry.tiles]
        parts.append("#" * (value - last) + ";".join(subs))
        last = value
    return "".join(parts)


def splice_blanks(text: str) -> str:
    """One blank between every adjacent pair of symbols."""
    return BLANK.join(text)


@dataclass(eq=False)
class LookupTable:
    """The spliced table string plus lazily built kernel structures."""

    symbols: str

    def __len__(self) -> int:
        return len(self.symbols)

    @cached_property
    def index(self) -> TableIndex:
        return TableIndex(self.symbols)


def build_table(entries: str) -> LookupTable:
    framed = ">" + entries + "<%%>" + entries[::-1] + "<"
    return LookupTable(splice_blanks(framed))


@dataclass(eq=False)
class CompiledSystem:
    """Everything the lookup engine and the macro simulation need.

    One field fills as the compiled system is used: `automaton`, the
    `macro.BlockAutomaton`.
    """

    source: TileSystem
    glues: GlueOrdering
    entries: str
    table: LookupTable
    addresses: dict[int, AddressEntry]
    entry_count: int
    spacer: int
    random_width: int
    resolution: int
    seed_block: BlockState
    lc_note: str = ""
    # the block program's interned states and steps, made on first use
    automaton: object = dc_field(default=None, init=False, repr=False, compare=False)


def default_random_width(amap: dict[int, AddressEntry]) -> int:
    widest = max((len(entry.tiles) for entry in amap.values()), default=1)
    return max(4, 2 * (widest - 1).bit_length())  # 2 * ceil(log2(widest))


def compile_system(
    tas: TileSystem,
    *,
    spacer: int | None = None,
    random_width: int | None = None,
    force: bool = False,
    lc_bound: int = 12,
) -> CompiledSystem:
    """Encode a locally consistent system into its lookup-table form.

    The consistency precondition is checked by exploration up to `lc_bound`
    tiles; `force` skips the check (the macro engine may then misbehave in
    exactly the ways the check exists to rule out).
    """
    if not force:
        verdict = consistency.verify_locally_consistent(tas, lc_bound)
        if not verdict.passed:
            raise ClassError(verdict)
        lc_note = verdict.note
    else:
        lc_note = "consistency check skipped (forced)"
    ordering = GlueOrdering.from_system(tas)
    amap = address_map(tas, ordering)
    entries = build_entries(tas, ordering, amap)
    table = build_table(entries)
    if spacer is None:
        spacer = ordering.pad_bits
    if random_width is None:
        random_width = default_random_width(amap)
    if random_width < 1:
        raise EncodingError("random_width must be at least 1")
    resolution = 2 * len(table.symbols) + 2 * ordering.pad_bits + spacer
    entry_count = 1 + max(amap, default=-1)
    assert entries.count("#") == entry_count
    return CompiledSystem(
        source=tas,
        glues=ordering,
        entries=entries,
        table=table,
        addresses=amap,
        entry_count=entry_count,
        spacer=spacer,
        random_width=random_width,
        resolution=resolution,
        seed_block=seed_block(tas),
        lc_note=lc_note,
    )


def serialize_compiled(cs: CompiledSystem) -> str:
    """Stable text artifact; blanks in the table line are written as '_'."""
    lines = ["tileworks compiled system v1"]
    lines.append("GLUES")
    for i, label in enumerate(cs.glues.labels):
        lines.append(f"{i} {'-' if label is None else label}")
    lines.append("TABLE")
    lines.append(cs.table.symbols.replace(BLANK, "_"))
    lines.append("ADDRESSES")
    for value in sorted(cs.addresses):
        entry = cs.addresses[value]
        names = " ".join(cs.source.tiles[t].name for t in entry.tiles)
        dirs = "".join(d.name for d in entry.address.directions)
        lines.append(f"{value} {dirs} {names}")
    lines.append("PARAMS")
    lines.append(f"glue_width {cs.glues.width}")
    lines.append(f"pad_bits {cs.glues.pad_bits}")
    lines.append(f"entry_count {cs.entry_count}")
    lines.append(f"table_length {len(cs.table.symbols)}")
    lines.append(f"spacer {cs.spacer}")
    lines.append(f"random_width {cs.random_width}")
    lines.append(f"resolution {cs.resolution}")
    lines.append(f"tiles {len(cs.source.tiles)}")
    lines.append(f"seed {cs.source.tiles[cs.source.seed].name}")
    lines.append("END")
    return "\n".join(lines) + "\n"
