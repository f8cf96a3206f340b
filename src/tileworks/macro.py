"""Block-level simulation driven by the compiled lookup table.

Each grid cell of the source system becomes a block.  Completed blocks push
their output pads at empty or collecting neighbours; a block whose received
pad strengths sum to exactly 2 probes the layout, draws random bits, commits
to the sub-entry that the table lookup on its input address selects, and
finally exposes that sub-entry's pads.  The blocks read only the table, never
the source or its address map; `decode_block` alone maps a block to a tile.

Every block runs one program, `_next_state`, and each compiled system keeps
one `BlockAutomaton` over it, whose small ids name block states.  Both
engines carry the ids as cell values, and `_events_at`, the one event rule,
reads only per-id facts.  `run_macro` runs it in the random walk `atam.walk`
and `macro_explore` in the breadth-first skeleton `atam.explore_packed`,
both shared with the source level.  A run renders its log only when read.
`macro_explore` returns the source level's `atam.ExplorationResult`: its
states keep each state as the edge that first reached it, and its edges
name states by id and events by code; both build a `MacroAssembly` or
`MacroEdge` only when one is read.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Mapping
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, partial
from typing import NamedTuple

from . import kernels
from .atam import (
    DIRECTIONS,
    Assembly,
    Coord,
    ExplorationResult,
    KeyedStates,
    Pad,
    WorkbenchError,
    around,
    direction_order,
    enabled,
    explore_packed,
    walk,
)
from .blocks import BlockPhase, BlockState, MacroAssembly, detect_kind
from .encoding import CompiledSystem, address_of
from .lookup import AddressRangeError, EmptyEntryError, trace_lookup


class MacroEventError(WorkbenchError):
    pass


class ThreeProbeError(MacroEventError):
    """A block was offered a third input pad; the probe logic handles at most two."""


class RepresentationError(WorkbenchError):
    pass


class EventKind(IntEnum):
    PAD_ARRIVAL = 0
    PROBE = 1
    COMMIT = 2
    COMPLETION = 3


# the kinds the per-event paths test, bound once as globals: on Python 3.11
# each `EventKind.X` read goes through the enum metaclass's `__getattr__`
# hook, about 0.2 us a read
_ARRIVAL, _PROBE, _COMMIT = EventKind.PAD_ARRIVAL, EventKind.PROBE, EventKind.COMMIT


@dataclass(frozen=True, slots=True)
class MacroEvent:
    """One block event at `coord`; slotted, since every refresh of the enabled
    events builds one per event and `MacroRun.events` keeps one per step."""

    kind: EventKind
    coord: Coord
    pad: Pad | None = None  # for arrivals: the pad as received (direction = receiving side)
    source: Coord | None = None

    def sort_key(self):
        d = direction_order(self.pad.direction) if self.pad is not None else -1
        return (int(self.kind), self.coord[1], self.coord[0], d)

    def describe(self) -> str:
        if self.kind is EventKind.PAD_ARRIVAL:
            assert self.pad is not None
            return (
                f"pad {self.pad.glue}:{self.pad.strength} arrives at {self.coord} "
                f"on side {self.pad.direction.name} from {self.source}"
            )
        return f"{self.kind.name.lower()} at {self.coord}"


# each receiving side's `direction_order` and offset
_SIDES = tuple((k, d.vector) for k, d in enumerate(DIRECTIONS))


class BlockAutomaton:
    """`_next_state` over interned block states, filled as the engines reach them.

    Id 0 is the empty block.  By id: `states`, the block state; `tiles`, its
    decoded tile, None before commit; `open`, the (side index, offset) of
    each side still open for arrivals; `own`, the event kind the block
    enables by itself, or None; `offers`, for each receiving side k, the
    pads offered to the neighbour whose side k faces it, turned to side k,
    or None before completion.  `steps` maps (id, event kind, pad, bits) to
    the next id; a step that raises is not stored.  `decode_block` checks a
    committed state once, as it is interned; one that fails gets no id.
    """

    def __init__(self, cs: CompiledSystem):
        self.cs = cs
        self.ids: dict[BlockState, int] = {}
        self.states: list[BlockState | None] = [None]
        self.tiles: list[int | None] = [None]
        self.open: list[tuple] = [_SIDES]
        self.own: list[EventKind | None] = [None]
        self.offers: list[tuple | None] = [None]
        self.steps: dict[tuple, int] = {}

    @classmethod
    def of(cls, cs: CompiledSystem) -> "BlockAutomaton":
        """`cs`'s automaton, made on first use."""
        if cs.automaton is None:
            cs.automaton = cls(cs)
        return cs.automaton

    def intern(self, state: BlockState, coord: Coord) -> int:
        """`state`'s id; a new committed state that fails `decode_block`
        raises, naming the block at `coord`."""
        found = self.ids.get(state)
        if found is not None:
            return found
        try:
            tile = decode_block(state, self.cs)
        except RepresentationError as exc:
            raise RepresentationError(f"block {coord}: {exc}") from exc
        phase, own, offers = state.phase, None, None
        collecting = phase is BlockPhase.INPUTS_PARTIAL
        closed = state.input_directions if collecting else DIRECTIONS
        if collecting and state.received_strength == 2:
            own = EventKind.PROBE
        elif phase is BlockPhase.TYPE_DETECTED:
            address = address_of(state.input_pads, self.cs.glues).value
            if kernels.sweep(self.cs.table.index, address, 0).status == kernels.OK:
                own = EventKind.COMMIT
        elif phase is BlockPhase.COMMITTED:
            own = EventKind.COMPLETION
        elif phase is BlockPhase.COMPLETE:
            outs = state.output_pads
            offers = tuple(
                tuple(Pad(p.glue, d, p.strength) for p in outs if p.direction is d.opposite)
                for d in DIRECTIONS
            )
        found = self.ids[state] = len(self.states)
        self.states.append(state)
        self.tiles.append(tile)
        self.open.append(tuple(s for s, d in zip(_SIDES, DIRECTIONS) if d not in closed))
        self.own.append(own)
        self.offers.append(offers)
        return found

    def step(self, here: int, event: MacroEvent, bits: str | None = None) -> int:
        """The id block `here` becomes after `event`, by `_next_state` on first use."""
        key = (here, event.kind, event.pad, bits)
        after = self.steps.get(key)
        if after is None:
            state = _next_state(self.cs, self.states[here], event, bits=bits)
            after = self.steps[key] = self.intern(state, event.coord)
        return after

    def touched(self, coord: Coord, here: int) -> tuple[Coord, ...]:
        """Where events can change when `coord` becomes block `here`: its
        neighbours too once it is complete."""
        return around(coord) if self.offers[here] is not None else (coord,)

    def ids_of(self, macro: MacroAssembly) -> MacroAssembly:
        """`macro` with each block state replaced by its id."""
        return MacroAssembly({c: self.intern(s, c) for c, s in macro.blocks.items()})


def _events_at(auto: BlockAutomaton, cells: Mapping[Coord, int], coord: Coord) -> list[tuple]:
    """The enabled events at `coord` among the block ids `cells`, as (sort key,
    (event,)) pairs in no particular order; each sort key is
    `event.sort_key()`, built in place.

    They read only the block at `coord` and what its neighbours offer, so
    applying an event can change only the events at its own coordinate and,
    once the block is complete, at its four neighbours.
    """
    here = cells.get(coord, 0)
    x, y = coord
    offers = auto.offers
    events: list[tuple] = []
    for k, (dx, dy) in auto.open[here]:
        source = (x + dx, y + dy)
        offered = offers[cells.get(source, 0)]
        if offered:
            for pad in offered[k]:
                events.append(((0, y, x, k), (MacroEvent(_ARRIVAL, coord, pad, source),)))
    own = auto.own[here]
    if own is not None:
        events.append(((own, y, x, -1), (MacroEvent(own, coord),)))
    return events


def macro_frontier(cs: CompiledSystem, macro: MacroAssembly) -> tuple[MacroEvent, ...]:
    """Every event currently enabled, in deterministic order."""
    auto = BlockAutomaton.of(cs)
    events = enabled(auto.ids_of(macro).blocks, partial(_events_at, auto), auto.touched)
    return tuple(payload[0] for _, payload, _ in events)


def _next_state(
    cs: CompiledSystem,
    state: BlockState | None,
    event: MacroEvent,
    *,
    bits: str | None = None,
) -> BlockState:
    """The state of the block at `event.coord` after `event`; `state` is the one before.

    A probe only marks the input type detected; a commit looks its sub-entry
    up with `bits`, the random bits drawn at that block's probe, and raises
    without them.  The outcome does not depend on `event.coord` or
    `event.source`, which only name the block in errors.
    """
    coord = event.coord

    if event.kind is EventKind.PAD_ARRIVAL:
        assert event.pad is not None
        if state is None:
            return BlockState(BlockPhase.INPUTS_PARTIAL, (event.pad,))
        if state.phase is not BlockPhase.INPUTS_PARTIAL:
            raise MacroEventError(
                f"block {coord} in phase {state.phase.name} cannot receive pads"
            )
        if event.pad.direction in state.input_directions:
            raise MacroEventError(
                f"block {coord} already received a pad on side {event.pad.direction.name}"
            )
        if len(state.input_pads) >= 2:
            raise ThreeProbeError(
                f"block {coord} would receive a third input pad; "
                f"three-sided inputs are outside the supported class"
            )
        pads = sorted(state.input_pads + (event.pad,), key=Pad.sort_key)
        return BlockState(BlockPhase.INPUTS_PARTIAL, tuple(pads))

    if state is None:
        raise MacroEventError(f"no block at {coord}")

    if event.kind is EventKind.PROBE:
        if state.phase is not BlockPhase.INPUTS_PARTIAL or state.received_strength != 2:
            raise MacroEventError(
                f"probe needs a collecting block with received strength exactly 2, "
                f"got phase {state.phase.name} strength {state.received_strength} at {coord}"
            )
        return BlockState(BlockPhase.TYPE_DETECTED, state.input_pads)

    if event.kind is EventKind.COMMIT:
        if state.phase is not BlockPhase.TYPE_DETECTED:
            raise MacroEventError(
                f"commit needs a type-detected block, got {state.phase.name} at {coord}"
            )
        if bits is None:
            raise MacroEventError(f"block {coord} has no random bits to commit with")
        address = address_of(state.input_pads, cs.glues)
        try:
            outcome, _ = trace_lookup(cs, address.value, bits)
        except (AddressRangeError, EmptyEntryError) as exc:
            raise MacroEventError(
                f"no tile attaches at {coord} for address {address.value}: {exc}"
            ) from exc
        return BlockState(BlockPhase.COMMITTED, state.input_pads, outcome.selected_index, outcome.pads)

    if event.kind is EventKind.COMPLETION:
        if state.phase is not BlockPhase.COMMITTED:
            raise MacroEventError(
                f"completion needs a committed block, got {state.phase.name} at {coord}"
            )
        return dataclasses.replace(state, phase=BlockPhase.COMPLETE)

    raise MacroEventError(f"unknown event kind {event.kind!r}")


def seed_macro(cs: CompiledSystem) -> MacroAssembly:
    return MacroAssembly({(0, 0): cs.seed_block})


@dataclass
class MacroRun:
    """A sequential macro simulation: the events applied, the final state,
    whether growth was held back, and `bits`, each probe's random bits in run
    order.

    `log`, one line per event, is rendered when first read: a block keeps its
    input pads from its probe on, and the final decode names each commit's tile.
    """

    events: tuple[MacroEvent, ...]
    final: MacroAssembly
    truncated: bool
    bits: tuple[str, ...]
    cs: CompiledSystem = dataclasses.field(repr=False, compare=False)

    @cached_property
    def log(self) -> tuple[str, ...]:
        tiles, blocks, bits = self.cs.source.tiles, self.final.blocks, iter(self.bits)
        decoded = decode_assembly(self.final, self.cs)
        lines = []
        for event in self.events:
            note = event.describe()
            if event.kind is EventKind.PROBE:
                kind = detect_kind(blocks[event.coord].input_pads).value
                note += f" [{kind}, bits={next(bits)}]"
            elif event.kind is EventKind.COMMIT:
                note += f" -> {tiles[decoded[event.coord]].name}"
            lines.append(note)
        return tuple(lines)


def run_macro(
    cs: CompiledSystem,
    rng_seed: int,
    *,
    max_events: int = 100_000,
    bound: int | None = None,
) -> MacroRun:
    """Apply uniformly chosen enabled events until quiescence, reproducibly.

    An `atam.walk` over block ids: it draws in `macro_frontier` order and
    holds back arrivals at empty coordinates once `bound` blocks exist.  A
    probe draws its block's random bits, held until that block commits; block
    steps go through the automaton's table, so a repeated one costs a lookup.
    A step keeps only the bits it draws, and formats no note.
    """
    rng = random.Random(rng_seed)
    width, spec = cs.random_width, f"0{cs.random_width}b"
    auto = BlockAutomaton.of(cs)
    bits_at: dict[Coord, str] = {}  # bits drawn at each probed, uncommitted block
    drawn: list[str] = []

    def step(here: int | None, payload: tuple[MacroEvent]) -> int:
        (event,) = payload
        kind = event.kind
        bits = None
        if kind is _PROBE:
            bits_at[event.coord] = probe_bits = format(rng.getrandbits(width), spec)
            drawn.append(probe_bits)
        elif kind is _COMMIT:
            bits = bits_at.pop(event.coord)
        return auto.step(here or 0, event, bits)

    blocks, chosen, truncated = walk(
        auto.ids_of(seed_macro(cs)), bound, max_events, rng, partial(_events_at, auto), step,
        auto.touched,
    )
    events = tuple(e for (e,) in chosen)
    final = MacroAssembly({c: auto.states[i] for c, i in blocks.items()})
    return MacroRun(events, final, truncated, tuple(drawn), cs)


class MacroEdge(NamedTuple):
    """One applied event, between the ids of the state it leaves and the one it reaches."""

    parent: int
    child: int
    event: MacroEvent


def macro_explore(cs: CompiledSystem, bound: int) -> ExplorationResult:
    """Closure of macro states reachable within `bound` blocks, by `atam.explore_packed`.

    Commits branch over every random-bit value; a block keeps no bits, so
    commit children collapse to one state per distinct outcome, in bit order.
    The skeleton carries block ids, and each block step goes through the
    automaton's table, shared with `run_macro` and with every other
    exploration of `cs`; the states hand out block states.
    """
    bit_values = [format(b, f"0{cs.random_width}b") for b in range(2**cs.random_width)]
    auto = BlockAutomaton.of(cs)

    def successors(here: int | None, payload: tuple[MacroEvent]) -> tuple:
        (event,) = payload
        draws = bit_values if event.kind is _COMMIT else (None,)
        return tuple(dict.fromkeys(auto.step(here or 0, event, bits) for bits in draws))

    # each payload is a `MacroEdge`'s tail: the event
    states, edges, cut = explore_packed(
        auto.ids_of(seed_macro(cs)), bound, partial(_events_at, auto), successors,
        auto.touched, MacroEdge,
    )
    states.alphabet[1:] = [auto.states[i] for i in states.alphabet[1:]]
    return ExplorationResult(KeyedStates(states), edges, 0, tuple(cut), bound)


def decode_block(state: BlockState, cs: CompiledSystem) -> int | None:
    """The tile a block represents, or None before commitment: the
    representation function, and the one reader of the address map.

    A committed block is tile `sub_entry` of its input pads' entry, or the
    source seed if it has none, as only the seed block does.  It must present
    exactly that tile's non-null, non-input pads, and its input pads must be
    the tile's on those sides; anything else, a missing sub-entry included,
    is a representation-integrity error.  The engines run it once per
    committed state, when `BlockAutomaton.intern` first sees it.
    """
    if state.phase < BlockPhase.COMMITTED:
        return None
    tile_index = cs.source.seed
    if state.input_pads:
        entry = cs.addresses.get(address_of(state.input_pads, cs.glues).value)
        if entry is None or state.sub_entry not in range(len(entry.tiles)):
            raise RepresentationError(f"no sub-entry {state.sub_entry} for {state.input_pads}")
        tile_index = entry.tiles[state.sub_entry]
    tile = cs.source.tiles[tile_index]
    inputs = state.input_directions
    expected = tuple(pad for pad in tile.pads() if pad.direction not in inputs)
    if expected != state.output_pads:
        raise RepresentationError(
            f"block output pads {state.output_pads} disagree with tile "
            f"{tile.name} (expected {expected})"
        )
    for pad in state.input_pads:
        side = tile.side(pad.direction)
        if side.glue != pad.glue or side.strength != pad.strength:
            raise RepresentationError(
                f"block input pad {pad} disagrees with tile {tile.name}"
            )
    return tile_index


def decode_assembly(macro: MacroAssembly, cs: CompiledSystem) -> Assembly:
    """Map every committed block to its tile; collecting blocks are undefined."""
    auto = BlockAutomaton.of(cs)
    cells: dict[Coord, int] = {}
    for coord, state in macro.blocks.items():
        tile = auto.tiles[auto.intern(state, coord)]
        if tile is not None:
            cells[coord] = tile
    if not cells:
        raise RepresentationError("no committed blocks; nothing to decode")
    return Assembly(cells)
