"""Block-level simulation driven by the compiled lookup table.

Each grid cell of the source system becomes a block.  Completed blocks push
their output pads at empty or collecting neighbours; a block whose received
pad strengths sum to exactly 2 probes, draws random bits, commits to the
sub-entry that the table lookup on its input address selects, and exposes
that sub-entry's pads.  The blocks read only the table; `decode_block` alone
maps a block to a tile.  Every block runs `_next_state`, through one
`BlockAutomaton` per compiled system, whose small ids name block states and
codes name events; `_events_at`, the one event rule, yields codes.
`run_macro` and `macro_explore` run it on ids and codes in the source
level's engines, `atam.walk` and `atam.explore_packed`, and build events
only when read.  A side is indexed by its `atam.Direction` itself.
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
    OFFSETS,
    Assembly,
    Coord,
    ExplorationResult,
    KeyedStates,
    Pad,
    WorkbenchError,
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


# own events' codes as plain ints: an `EventKind.X` read costs 0.2 us
_PROBE, _COMMIT, _COMPLETION = 1, 2, 3
# each side's index and vector
_SIDES = tuple(enumerate(OFFSETS))


@dataclass(frozen=True, slots=True)
class MacroEvent:
    """One block event at `coord`, built from its code on read."""

    kind: EventKind
    coord: Coord
    pad: Pad | None = None  # an arrival's as received
    source: Coord | None = None

    def describe(self) -> str:
        if self.kind is EventKind.PAD_ARRIVAL:
            assert self.pad is not None
            return (
                f"pad {self.pad.glue}:{self.pad.strength} arrives at {self.coord} "
                f"on side {self.pad.direction.name} from {self.source}"
            )
        return f"{self.kind.name.lower()} at {self.coord}"


class BlockAutomaton:
    """`_next_state` over interned block states and events, filled as the engines reach them.

    Id 0 is the empty block.  Per id: `states`; `tiles` (None before commit);
    `open`, the (side index, offset) of the sides open for arrivals; `own`,
    the code of the event it enables itself, or None; `subs`, a committing
    block's sub-entry count n, else 0; `offers`, per receiving side k, the
    arrival code offered to the neighbour whose side k faces it (0: none),
    None before completion.  `events[code]` is (kind, pad): own events
    are coded by kind, arrivals from 4 by the pad as received.  `steps` maps
    (id, code), for a commit (id, code, bits mod n), to the next id.  A step
    that raises, or a state that fails `decode_block`, is not stored.
    """

    def __init__(self, cs: CompiledSystem):
        self.cs = cs
        self.ids: dict[BlockState, int] = {}
        self.states, self.tiles, self.open = [None], [None], [_SIDES]
        self.own, self.subs, self.offers = [None], [0], [None]
        self.events = [(kind, None) for kind in EventKind]
        self.codes: dict[Pad, int] = {}
        self.addresses: dict[tuple, int] = {}
        self.steps: dict[tuple, int] = {}

    @classmethod
    def of(cls, cs: CompiledSystem) -> "BlockAutomaton":
        """`cs`'s automaton, made on first use."""
        if cs.automaton is None:
            cs.automaton = cls(cs)
        return cs.automaton

    @cached_property
    def tile_pads(self) -> list[tuple[Pad, ...]]:
        """Each tile's pads, built once for `decode_block`, their one reader."""
        return [tile.pads() for tile in self.cs.source.tiles]

    def address(self, pads: tuple[Pad, ...]) -> int:
        """Input pads `pads`' address, computed once per automaton."""
        if pads not in self.addresses:
            self.addresses[pads] = address_of(pads, self.cs.glues).value
        return self.addresses[pads]

    def intern(self, state: BlockState, coord: Coord) -> int:
        """`state`'s id; a new state failing `decode_block` raises, naming `coord`."""
        found = self.ids.get(state)
        if found is not None:
            return found
        try:
            tile = decode_block(state, self.cs)
        except RepresentationError as exc:
            raise RepresentationError(f"block {coord}: {exc}") from exc
        phase, own, subs, offers = state.phase, None, 0, None
        collecting = phase is BlockPhase.INPUTS_PARTIAL
        closed = state.input_directions if collecting else DIRECTIONS
        if collecting and state.received_strength == 2:
            own = _PROBE
        elif phase is BlockPhase.TYPE_DETECTED:
            rec = kernels.sweep(self.cs.table.index, self.address(state.input_pads), 0)
            if rec.status == kernels.OK:
                own, subs = _COMMIT, rec.n
        elif phase is BlockPhase.COMMITTED:
            own = _COMPLETION
        elif phase is BlockPhase.COMPLETE:
            offers = [0] * len(DIRECTIONS)
            for p in state.output_pads:
                k = p.direction ^ 2
                pad = Pad(p.glue, DIRECTIONS[k], p.strength)
                offers[k] = self.codes.setdefault(pad, len(self.events))
                if offers[k] == len(self.events):
                    self.events.append((EventKind.PAD_ARRIVAL, pad))
            offers = tuple(offers)
        found = self.ids[state] = len(self.states)
        self.states.append(state)
        self.tiles.append(tile)
        self.open.append(tuple(s for s in _SIDES if s[0] not in closed))
        self.own.append(own)
        self.subs.append(subs)
        self.offers.append(offers)
        return found

    def event(self, coord: Coord, code: int) -> MacroEvent:
        """Event `code` at `coord`; an arrival comes from the neighbour it faces."""
        kind, pad = self.events[code]
        return MacroEvent(kind, coord, pad, None if pad is None else pad.direction.step(coord))

    def step(self, here: int, code: int, coord: Coord, bits: str | None = None) -> int:
        """The id block `here` becomes after event `code` at `coord` (with a
        commit's `bits`), by `_next_state` on first use."""
        key = (here, code) if bits is None else (here, code, int(bits, 2) % self.subs[here])
        after = self.steps.get(key)
        if after is None:
            state = _next_state(self.cs, self.states[here], self.event(coord, code), bits=bits)
            after = self.steps[key] = self.intern(state, coord)
        return after

    def touched(self, coord: Coord, here: int) -> tuple[Coord, ...]:
        """Where events can change when `coord` becomes block `here`: there
        and, once it is complete, where it offers a pad."""
        offered = self.offers[here]
        if offered is None:
            return (coord,)
        x, y = coord  # side k receives from the neighbour it faces
        return (coord, *[(x - dx, y - dy) for (_, (dx, dy)), code in zip(_SIDES, offered) if code])

    def ids_of(self, macro: MacroAssembly) -> MacroAssembly:
        """`macro` with its block states as ids."""
        return MacroAssembly({c: self.intern(s, c) for c, s in macro.blocks.items()})


def _events_at(auto: BlockAutomaton, cells: Mapping[Coord, int], coord: Coord) -> list[tuple]:
    """The enabled events at `coord` among the block ids `cells`, unordered, as
    ((kind, y, x, receiving side or -1), (coord, code)) pairs."""
    here = cells.get(coord, 0)
    x, y = coord
    offers = auto.offers
    events = []
    for k, (dx, dy) in auto.open[here]:
        offered = offers[cells.get((x + dx, y + dy), 0)]
        if offered and offered[k]:
            events.append(((0, y, x, k), (coord, offered[k])))
    own = auto.own[here]
    if own:
        events.append(((own, y, x, -1), (coord, own)))
    return events


def macro_frontier(cs: CompiledSystem, macro: MacroAssembly) -> tuple[MacroEvent, ...]:
    """Every event currently enabled, in deterministic order."""
    auto = BlockAutomaton.of(cs)
    events = enabled(auto.ids_of(macro).blocks, partial(_events_at, auto), auto.touched)
    return tuple(auto.event(*payload) for _, payload, _ in events)


def _next_state(
    cs: CompiledSystem,
    state: BlockState | None,
    event: MacroEvent,
    *,
    bits: str | None = None,
) -> BlockState:
    """The state of the block at `event.coord` after `event`; `state` is the one before.

    A commit looks its sub-entry up with `bits`, drawn at the block's probe.
    `event.coord` and `event.source` only name the block in errors.
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
        address = BlockAutomaton.of(cs).address(state.input_pads)
        try:
            outcome, _ = trace_lookup(cs, address, bits)
        except (AddressRangeError, EmptyEntryError) as exc:
            raise MacroEventError(
                f"no tile attaches at {coord} for address {address}: {exc}"
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


class MacroEvents:
    """A run's events, kept as (coordinate, event code) pairs and built when
    read, as `atam.Edges` builds edges."""

    def __init__(self, auto: BlockAutomaton, chosen: list[tuple[Coord, int]]):
        self.auto, self.chosen = auto, chosen

    def __len__(self) -> int:
        return len(self.chosen)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return MacroEvents(self.auto, self.chosen[i])
        return self.auto.event(*self.chosen[i])

    def __eq__(self, other) -> bool:
        return isinstance(other, MacroEvents) and list(self) == list(other)


@dataclass
class MacroRun:
    """A macro run: its `MacroEvents`, final state, truncation and each probe's
    random bits in run order; `log`, one line per event, is rendered on read."""

    events: MacroEvents
    final: MacroAssembly
    truncated: bool
    bits: tuple[str, ...]
    cs: CompiledSystem = dataclasses.field(repr=False, compare=False)

    @cached_property
    def log(self) -> tuple[str, ...]:
        tiles, bits = self.cs.source.tiles, iter(self.bits)
        decoded, lines = decode_assembly(self.final, self.cs), []
        for event in self.events:
            note = event.describe()
            if event.kind is EventKind.PROBE:
                kind = detect_kind(self.final[event.coord].input_pads).value
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

    An `atam.walk` over block ids and (coordinate, event code) pairs, in
    `macro_frontier` order, holding back arrivals at empty coordinates once
    `bound` blocks exist.  A probe's random bits are held until it commits.
    """
    rng = random.Random(rng_seed)
    width, spec = cs.random_width, f"0{cs.random_width}b"
    auto = BlockAutomaton.of(cs)
    steps = auto.steps
    bits_at: dict[Coord, str] = {}  # each probed, uncommitted block's bits
    drawn: list[str] = []

    def step(here: int | None, payload: tuple[Coord, int]) -> int:
        coord, code = payload
        if code == _COMMIT:
            return auto.step(here, code, coord, bits_at.pop(coord))
        if code == _PROBE:
            bits_at[coord] = probe_bits = format(rng.getrandbits(width), spec)
            drawn.append(probe_bits)
        # a known step is one lookup; no step leads to id 0
        return steps.get((here or 0, code)) or auto.step(here or 0, code, coord)

    blocks, chosen, truncated = walk(
        auto.ids_of(seed_macro(cs)), bound, max_events, rng, partial(_events_at, auto), step,
        auto.touched,
    )
    final = MacroAssembly({c: auto.states[i] for c, i in blocks.items()})
    return MacroRun(MacroEvents(auto, chosen), final, truncated, tuple(drawn), cs)


class MacroEdge(NamedTuple):
    """One applied event, between the ids of the state it leaves and the one it reaches."""

    parent: int
    child: int
    event: MacroEvent


def macro_explore(cs: CompiledSystem, bound: int) -> ExplorationResult:
    """Closure of macro states reachable within `bound` blocks, by `atam.explore_packed`.

    A commit branches over the sub-entries p < min(n, 2**width) that bit
    values 0, 1, ... select, in that order.  The exploration carries
    (coordinate, event code) payloads, as `run_macro` does; once it ends,
    each outcome code's `MacroEvent` is built once."""
    width, spec = cs.random_width, f"0{cs.random_width}b"
    auto = BlockAutomaton.of(cs)

    def successors(here: int | None, payload: tuple[Coord, int]) -> tuple:
        coord, code = payload
        here = here or 0
        if code != _COMMIT:
            return (auto.step(here, code, coord),)
        picks = range(min(auto.subs[here], 2**width))
        return tuple(auto.step(here, code, coord, format(p, spec)) for p in picks)

    states, edges, cut = explore_packed(
        auto.ids_of(seed_macro(cs)), bound, partial(_events_at, auto), successors, auto.touched,
        MacroEdge,
    )
    states.alphabet[1:] = [auto.states[i] for i in states.alphabet[1:]]
    edges.table[:] = [(auto.event(*payload),) for payload in edges.table]
    return ExplorationResult(KeyedStates(states), edges, 0, tuple(cut), bound)


def decode_block(state: BlockState, cs: CompiledSystem) -> int | None:
    """The tile a block represents, or None before commitment: the
    representation function, and the one reader of the address map.  A
    committed block is tile `sub_entry` of its input pads' entry (the seed
    block: the source seed), and must present that tile's pads; anything
    else is a representation-integrity error."""
    if state.phase < BlockPhase.COMMITTED:
        return None
    auto, tile_index = BlockAutomaton.of(cs), cs.source.seed
    if state.input_pads:
        entry = cs.addresses.get(auto.address(state.input_pads))
        if entry is None or state.sub_entry not in range(len(entry.tiles)):
            raise RepresentationError(f"no sub-entry {state.sub_entry} for {state.input_pads}")
        tile_index = entry.tiles[state.sub_entry]
    tile = cs.source.tiles[tile_index]
    inputs = state.input_directions
    expected = tuple(pad for pad in auto.tile_pads[tile_index] if pad.direction not in inputs)
    if expected != state.output_pads:
        raise RepresentationError(
            f"block output pads {state.output_pads} disagree with tile "
            f"{tile.name} (expected {expected})"
        )
    for pad in state.input_pads:
        side = tile.side(pad.direction)
        if side.glue != pad.glue or side.strength != pad.strength:
            raise RepresentationError(f"block input pad {pad} disagrees with tile {tile.name}")
    return tile_index


def decode_assembly(macro: MacroAssembly, cs: CompiledSystem) -> Assembly:
    """Map every committed block to its tile; collecting blocks are undefined.
    The automaton's own block states are found by identity."""
    auto = BlockAutomaton.of(cs)
    known = dict(zip(map(id, auto.states), auto.tiles))
    cells: dict[Coord, int] = {}
    for coord, state in macro.blocks.items():
        tile = known.get(id(state), ...)
        if tile is ...:
            tile = auto.tiles[auto.intern(state, coord)]
        if tile is not None:
            cells[coord] = tile
    if not cells:
        raise RepresentationError("no committed blocks; nothing to decode")
    return Assembly(cells)
