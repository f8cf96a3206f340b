"""Block-level simulation driven by the compiled lookup table.

Each grid cell of the source system becomes a block.  Completed blocks push
their output pads at empty or collecting neighbours; a block whose received
pad strengths sum to exactly 2 probes the layout, draws random bits, commits
to a tile by running the table lookup on its input address, and finally
exposes the committed tile's output pads.  Decoding a block back to a tile is
defined from the committed phase onward.

That per-block automaton is `_next_state`, and `_events_at` the one event
rule, the events enabled at a coordinate.  `run_macro` runs it in the random
walk `atam.walk` and `macro_explore` in the breadth-first skeleton
`atam.explore_packed`, both shared with the source level; both step blocks
through `_transition`, the automaton's one memo, kept on the compiled system.
`macro_explore` dedupes one layer of states at a time, by a packed key of one
character per coordinate slot naming its interned block state, and keeps
each state only as the edge that first reached it; its `atam.PackedStates`
build a `MacroAssembly` only when one is read, and its `atam.Edges` name
states by id, events by code, and build a `MacroEdge` only when one is read.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Mapping
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from typing import NamedTuple

from .atam import (
    DIRECTIONS,
    Assembly,
    Coord,
    Edges,
    PackedStates,
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


def _addressable(cs: CompiledSystem, state: BlockState) -> bool:
    """Whether `state`'s input address has an entry, memoised in `cs.addressable`."""
    memo = cs.addressable
    known = memo.get(state)
    if known is None:
        known = memo[state] = address_of(state.input_pads, cs.glues).value in cs.addresses
    return known


# each receiving side's `direction_order`, the side, the side facing it, its offset
_SIDES = tuple((k, d, d.opposite, d.vector) for k, d in enumerate(DIRECTIONS))


def _events_at(
    cs: CompiledSystem, blocks: Mapping[Coord, BlockState], coord: Coord
) -> list[tuple]:
    """The enabled events at `coord`, as (sort key, (event,)) pairs in no
    particular order; each sort key is `event.sort_key()`, built in place.

    They read only the block at `coord` and the complete neighbours whose
    output pads point at it, so applying an event can change only the events
    at its own coordinate and at its four neighbours.
    """
    state = blocks.get(coord)
    x, y = coord
    if state is None or state.phase is BlockPhase.INPUTS_PARTIAL:
        events: list[tuple] = []
        taken = state.input_directions if state is not None else ()
        for k, side, facing, (dx, dy) in _SIDES:
            source = (x + dx, y + dy)
            neighbour = blocks.get(source)
            if (
                side in taken
                or neighbour is None
                or neighbour.phase is not BlockPhase.COMPLETE
            ):
                continue
            for pad in neighbour.output_pads:
                if pad.direction is facing:
                    received = Pad(pad.glue, side, pad.strength)
                    event = MacroEvent(EventKind.PAD_ARRIVAL, coord, received, source)
                    events.append(((0, y, x, k), (event,)))
        if state is not None and state.received_strength == 2:
            events.append(((1, y, x, -1), (MacroEvent(EventKind.PROBE, coord),)))
        return events
    if state.phase is BlockPhase.TYPE_DETECTED and _addressable(cs, state):
        return [((2, y, x, -1), (MacroEvent(EventKind.COMMIT, coord),))]
    if state.phase is BlockPhase.COMMITTED:
        return [((3, y, x, -1), (MacroEvent(EventKind.COMPLETION, coord),))]
    return []


def _touched(coord: Coord, state: BlockState) -> tuple[Coord, ...]:
    """Where events can change when `coord` becomes `state`: its neighbours once complete."""
    return around(coord) if state.phase is BlockPhase.COMPLETE else (coord,)


def macro_frontier(cs: CompiledSystem, macro: MacroAssembly) -> tuple[MacroEvent, ...]:
    """Every event currently enabled, in deterministic order."""
    events = enabled(macro.blocks, partial(_events_at, cs), _touched)
    return tuple(payload[0] for _, payload, _ in events)


def _next_state(
    cs: CompiledSystem,
    state: BlockState | None,
    event: MacroEvent,
    *,
    bits: str | None = None,
) -> BlockState:
    """The state of the block at `event.coord` after `event`; `state` is the one before.

    A probe only marks the input type detected; a commit looks its tile up
    with `bits`, the random bits drawn at that block's probe, and raises
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
        tile, pads = outcome.tile_candidates[outcome.selected_index], outcome.sub_entry.pads
        committed = BlockState(BlockPhase.COMMITTED, state.input_pads, tile, pads)
        _decode_at(cs, coord, committed)  # the block must represent the looked-up tile
        return committed

    if event.kind is EventKind.COMPLETION:
        if state.phase is not BlockPhase.COMMITTED:
            raise MacroEventError(
                f"completion needs a committed block, got {state.phase.name} at {coord}"
            )
        return dataclasses.replace(state, phase=BlockPhase.COMPLETE)

    raise MacroEventError(f"unknown event kind {event.kind!r}")


def _transition(
    cs: CompiledSystem, state: BlockState | None, event: MacroEvent, bits: str | None = None
) -> BlockState:
    """`_next_state`, memoised in `cs.transitions` by (state, kind, pad, bits).

    A transition that raises is not stored.  The memo also maps each outcome
    to itself, so equal outcomes (a commit's, over many bit values) are one object.
    """
    memo = cs.transitions
    key = (state, event.kind, event.pad, bits)
    after = memo.get(key)
    if after is None:
        after = _next_state(cs, state, event, bits=bits)
        after = memo[key] = memo.setdefault(after, after)
    return after


def seed_macro(cs: CompiledSystem) -> MacroAssembly:
    return MacroAssembly({(0, 0): cs.seed_block})


@dataclass
class MacroRun:
    """A sequential macro simulation: the event log and the final state."""

    events: tuple[MacroEvent, ...]
    log: tuple[str, ...]
    final: MacroAssembly
    truncated: bool


def run_macro(
    cs: CompiledSystem,
    rng_seed: int,
    *,
    max_events: int = 100_000,
    bound: int | None = None,
) -> MacroRun:
    """Apply uniformly chosen enabled events until quiescence, reproducibly.

    An `atam.walk` over block states: it draws in `macro_frontier` order and
    holds back arrivals at empty coordinates once `bound` blocks exist.  A
    probe draws its block's random bits, held until that block commits; block
    steps go through the `_transition` memo, so a repeated one costs a lookup.
    """
    rng = random.Random(rng_seed)
    bits_at: dict[Coord, str] = {}  # bits drawn at each probed, uncommitted block
    log: list[str] = []

    def step(state: BlockState | None, payload: tuple[MacroEvent]) -> BlockState:
        (event,) = payload
        coord = event.coord
        if event.kind is EventKind.PROBE:
            bits_at[coord] = format(rng.getrandbits(cs.random_width), f"0{cs.random_width}b")
        bits = bits_at.pop(coord) if event.kind is EventKind.COMMIT else None
        state = _transition(cs, state, event, bits)
        note = event.describe()
        if event.kind is EventKind.PROBE:
            note += f" [{detect_kind(state.input_pads).value}, bits={bits_at[coord]}]"
        elif event.kind is EventKind.COMMIT:
            assert state.committed_tile is not None
            note += f" -> {cs.source.tiles[state.committed_tile].name}"
        log.append(note)
        return state

    blocks, chosen, truncated = walk(
        seed_macro(cs), bound, max_events, rng, partial(_events_at, cs), step, _touched
    )
    return MacroRun(tuple(e for (e,) in chosen), tuple(log), MacroAssembly(blocks), truncated)


class MacroEdge(NamedTuple):
    """One applied event, between the ids of the state it leaves and the one it reaches."""

    parent: int
    child: int
    event: MacroEvent


@dataclass
class MacroExplorationResult:
    """A `macro_explore`: `states` by id, `edges` an `Edges` view of `MacroEdge`s
    between ids, whose table holds each code's payload, `(event,)`."""

    states: PackedStates
    edges: Edges
    seed_key: int
    truncated: bool
    bound: int


def macro_explore(cs: CompiledSystem, bound: int) -> MacroExplorationResult:
    """Closure of macro states reachable within `bound` blocks, by `atam.explore_packed`.

    Commits branch over every random-bit value; a block keeps no bits, so
    commit children collapse to one state per distinct outcome, in bit order.
    Each block step goes through the `_transition` memo, shared with
    `run_macro` and with every other exploration of `cs`.
    """
    bit_values = [format(b, f"0{cs.random_width}b") for b in range(2**cs.random_width)]

    def successors(state: BlockState | None, payload: tuple[MacroEvent]) -> tuple:
        (event,) = payload
        draws = bit_values if event.kind is EventKind.COMMIT else (None,)
        return tuple(dict.fromkeys(_transition(cs, state, event, bits) for bits in draws))

    # each payload is a `MacroEdge`'s tail: the event
    states, edges, cut = explore_packed(
        seed_macro(cs), bound, partial(_events_at, cs), successors, _touched, MacroEdge
    )
    return MacroExplorationResult(states, edges, 0, bool(cut), bound)


def decode_block(state: BlockState, cs: CompiledSystem) -> int | None:
    """The tile a block represents, or None before commitment.

    A committed block must present exactly the committed tile's non-null,
    non-input pads, and its input pads must be the tile's on those sides;
    anything else is a representation-integrity error.  Each committed state
    is checked once per compiled system; a failing one is checked again.
    """
    if state.phase < BlockPhase.COMMITTED:
        return None
    if state in cs.block_tiles:
        return cs.block_tiles[state]
    tile_index = state.committed_tile
    if tile_index is None:
        raise RepresentationError("committed block without a committed tile")
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
    cs.block_tiles[state] = tile_index
    return tile_index


def _decode_at(cs: CompiledSystem, coord: Coord, state: BlockState) -> int | None:
    """`decode_block`, with any error naming the block's coordinate."""
    try:
        return decode_block(state, cs)
    except RepresentationError as exc:
        raise RepresentationError(f"block {coord}: {exc}") from exc


def decode_assembly(macro: MacroAssembly, cs: CompiledSystem) -> Assembly:
    """Map every committed block to its tile; collecting blocks are undefined."""
    cells: dict[Coord, int] = {}
    for coord, state in macro.blocks.items():
        tile = _decode_at(cs, coord, state)
        if tile is not None:
            cells[coord] = tile
    if not cells:
        raise RepresentationError("no committed blocks; nothing to decode")
    return Assembly(cells)
