"""Block-level simulation driven by the compiled lookup table.

Each grid cell of the source system becomes a block.  Completed blocks push
their output pads at empty or collecting neighbours; a block whose received
pad strengths sum to exactly 2 probes the layout, draws random bits, commits
to a tile by running the table lookup on its input address, and finally
exposes the committed tile's output pads.  Decoding a block back to a tile is
defined from the committed phase onward.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping

from .atam import (
    DIRECTIONS,
    Assembly,
    Coord,
    Pad,
    WorkbenchError,
    direction_order,
)
from .blocks import (
    BlockPhase,
    BlockState,
    MacroAssembly,
    detect_kind,
    sort_pads,
)
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


@dataclass(frozen=True)
class MacroEvent:
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
    value = address_of(state.input_pads, cs.glues).value
    return value in cs.addresses


# each receiving side, the neighbour's side that faces it, and the neighbour's offset
_SIDES = tuple((d, d.opposite, d.vector) for d in DIRECTIONS)


def _events_at(
    cs: CompiledSystem, blocks: Mapping[Coord, BlockState], coord: Coord
) -> list[MacroEvent]:
    """The enabled events at `coord`, in no particular order.

    They read only the block at `coord` and the complete neighbours whose
    output pads point at it, so applying an event can change only the events
    at its own coordinate and at its four neighbours.
    """
    state = blocks.get(coord)
    events: list[MacroEvent] = []
    if state is None or state.phase is BlockPhase.INPUTS_PARTIAL:
        taken = state.input_directions if state is not None else ()
        x, y = coord
        for side, facing, (dx, dy) in _SIDES:
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
                    events.append(
                        MacroEvent(EventKind.PAD_ARRIVAL, coord, received, source)
                    )
        if state is not None and state.received_strength == 2:
            events.append(MacroEvent(EventKind.PROBE, coord))
    elif state.phase is BlockPhase.TYPE_DETECTED:
        if _addressable(cs, state):
            events.append(MacroEvent(EventKind.COMMIT, coord))
    elif state.phase is BlockPhase.COMMITTED:
        events.append(MacroEvent(EventKind.COMPLETION, coord))
    return events


def macro_frontier(cs: CompiledSystem, macro: MacroAssembly) -> tuple[MacroEvent, ...]:
    """Every event currently enabled, in deterministic order."""
    blocks = macro.blocks
    coords = set(blocks)
    for coord, state in blocks.items():
        if state.phase is BlockPhase.COMPLETE:
            coords.update(pad.direction.step(coord) for pad in state.output_pads)
    events = [event for coord in coords for event in _events_at(cs, blocks, coord)]
    events.sort(key=MacroEvent.sort_key)
    return tuple(events)


def _next_state(
    cs: CompiledSystem,
    state: BlockState | None,
    event: MacroEvent,
    *,
    probe_bits: str | None = None,
    commit_bits: str | None = None,
    keep_bits: bool = True,
) -> BlockState:
    """The state of the block at `event.coord` after `event`; `state` is the one before."""
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
        return BlockState(
            BlockPhase.INPUTS_PARTIAL, sort_pads(state.input_pads + (event.pad,))
        )

    if state is None:
        raise MacroEventError(f"no block at {coord}")

    if event.kind is EventKind.PROBE:
        if state.phase is not BlockPhase.INPUTS_PARTIAL or state.received_strength != 2:
            raise MacroEventError(
                f"probe needs a collecting block with received strength exactly 2, "
                f"got phase {state.phase.name} strength {state.received_strength} at {coord}"
            )
        kind = detect_kind(state.input_pads)
        return BlockState(BlockPhase.TYPE_DETECTED, state.input_pads, kind, probe_bits)

    if event.kind is EventKind.COMMIT:
        if state.phase is not BlockPhase.TYPE_DETECTED:
            raise MacroEventError(
                f"commit needs a type-detected block, got {state.phase.name} at {coord}"
            )
        bits = commit_bits if commit_bits is not None else state.random_bits
        if bits is None:
            raise MacroEventError(f"block {coord} has no random bits to commit with")
        address = address_of(state.input_pads, cs.glues)
        try:
            outcome, _ = trace_lookup(cs, address.value, bits)
        except (AddressRangeError, EmptyEntryError) as exc:
            raise MacroEventError(
                f"no tile attaches at {coord} for address {address.value}: {exc}"
            ) from exc
        tile_index = outcome.tile_candidates[outcome.selected_index]
        tile = cs.source.tiles[tile_index]
        for pad in state.input_pads:
            side = tile.side(pad.direction)
            if side.glue != pad.glue or side.strength != pad.strength:
                raise RepresentationError(
                    f"looked-up tile {tile.name} does not match input pad {pad} at {coord}"
                )
        return BlockState(
            BlockPhase.COMMITTED,
            state.input_pads,
            state.input_kind,
            bits if keep_bits else None,
            tile_index,
            outcome.sub_entry.pads,
        )

    if event.kind is EventKind.COMPLETION:
        if state.phase is not BlockPhase.COMMITTED:
            raise MacroEventError(
                f"completion needs a committed block, got {state.phase.name} at {coord}"
            )
        return BlockState(
            BlockPhase.COMPLETE,
            state.input_pads,
            state.input_kind,
            state.random_bits,
            state.committed_tile,
            state.output_pads,
        )

    raise MacroEventError(f"unknown event kind {event.kind!r}")


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

    Each step draws from the enabled events in `macro_frontier` order.  The
    enabled set is kept as a sorted list of sort keys (unique per event), and
    a step recomputes only the events at its own coordinate, plus those at the
    four neighbours after a completion, so it costs the same however large
    the assembly has grown.  Once `bound` blocks exist, arrivals at empty
    coordinates are held back, and the run is truncated if any was.
    """
    rng = random.Random(rng_seed)
    blocks: dict[Coord, BlockState] = dict(seed_macro(cs).blocks)
    enabled: list[tuple] = []
    by_key: dict[tuple, MacroEvent] = {}
    keys_at: dict[Coord, list[tuple]] = {}
    held_back = False

    def refresh(coord: Coord) -> None:
        nonlocal held_back
        for key in keys_at.pop(coord, ()):
            del enabled[bisect_left(enabled, key)]
            del by_key[key]
        events = _events_at(cs, blocks, coord)
        if not events:
            return
        if bound is not None and len(blocks) >= bound and coord not in blocks:
            held_back = True  # every event at an empty coordinate is an arrival
            return
        keys_at[coord] = keys = [event.sort_key() for event in events]
        for key, event in zip(keys, events):
            insort(enabled, key)
            by_key[key] = event

    for coord in (0, 0), *(d.step((0, 0)) for d in DIRECTIONS):
        refresh(coord)
    applied: list[MacroEvent] = []
    log: list[str] = []
    truncated = False
    while len(applied) < max_events:
        truncated = held_back  # a held-back arrival stays enabled for good
        if not enabled:
            break
        event = by_key[enabled[rng.randrange(len(enabled))]]
        probe_bits = None
        if event.kind is EventKind.PROBE:
            probe_bits = format(rng.getrandbits(cs.random_width), f"0{cs.random_width}b")
        coord = event.coord
        grew = coord not in blocks
        state = blocks[coord] = _next_state(
            cs, blocks.get(coord), event, probe_bits=probe_bits
        )
        # a block's state reaches its neighbours' events only once it is complete
        refresh(coord)
        if state.phase is BlockPhase.COMPLETE:
            for d in DIRECTIONS:
                refresh(d.step(coord))
        if grew and len(blocks) == bound:  # hold back the arrivals enabled so far
            for empty in [c for c in keys_at if c not in blocks]:
                refresh(empty)
        applied.append(event)
        note = event.describe()
        if event.kind is EventKind.PROBE:
            assert state.input_kind is not None
            note += f" [{state.input_kind.value}, bits={state.random_bits}]"
        elif event.kind is EventKind.COMMIT:
            assert state.committed_tile is not None
            note += f" -> {cs.source.tiles[state.committed_tile].name}"
        log.append(note)
    return MacroRun(tuple(applied), tuple(log), MacroAssembly(blocks), truncated)


@dataclass(frozen=True)
class MacroEdge:
    parent: frozenset
    child: frozenset
    event: MacroEvent


@dataclass
class MacroExplorationResult:
    states: dict[frozenset, MacroAssembly]
    edges: tuple[MacroEdge, ...]
    seed_key: frozenset
    truncated: bool
    bound: int


def macro_explore(cs: CompiledSystem, bound: int) -> MacroExplorationResult:
    """Closure of macro states reachable within `bound` blocks.

    Commits branch over every possible random-bit value; since later behaviour
    depends only on the committed tile, commit children drop the raw bits and
    collapse to one state per distinct outcome.  A block's next states depend
    on its own state and the event's kind and pad alone, so each distinct
    transition (for a commit, its distinct outcomes over all bit values) is
    computed once per call.  A transition that raises is not stored: the
    exploration stops where it first meets it, with that block's coordinate.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    start = seed_macro(cs)
    states: dict[frozenset, MacroAssembly] = {start.key: start}
    edges: list[MacroEdge] = []
    queue: deque[frozenset] = deque([start.key])
    truncated = False
    bit_values = [
        format(b, f"0{cs.random_width}b") for b in range(2**cs.random_width)
    ]
    # (state, kind, pad) -> the distinct next states, in bit order for a commit
    next_states: dict[tuple, tuple[BlockState, ...]] = {}
    while queue:
        key = queue.popleft()
        macro = states[key]
        for event in macro_frontier(cs, macro):
            coord = event.coord
            state = macro.get(coord)
            if state is None and len(macro) >= bound:
                truncated = True  # every event at an empty coordinate is an arrival
                continue
            slot = (state, event.kind, event.pad)
            outcomes = next_states.get(slot)
            if outcomes is None:
                if event.kind is EventKind.COMMIT:
                    outcomes = tuple(
                        dict.fromkeys(
                            _next_state(cs, state, event, commit_bits=bits, keep_bits=False)
                            for bits in bit_values
                        )
                    )
                else:
                    outcomes = (_next_state(cs, state, event),)
                next_states[slot] = outcomes
            for outcome in outcomes:
                child = macro.with_block(coord, outcome)
                ckey = child.key
                if ckey not in states:
                    states[ckey] = child
                    queue.append(ckey)
                edges.append(MacroEdge(key, ckey, event))
    return MacroExplorationResult(states, tuple(edges), start.key, truncated, bound)


def decode_block(state: BlockState, cs: CompiledSystem) -> int | None:
    """The tile a block represents, or None before commitment.

    A committed block must present exactly the committed tile's non-null,
    non-input pads; anything else is a representation-integrity error.
    """
    if state.phase < BlockPhase.COMMITTED:
        return None
    tile_index = state.committed_tile
    if tile_index is None:
        raise RepresentationError("committed block without a committed tile")
    tile = cs.source.tiles[tile_index]
    inputs = state.input_directions
    expected = sort_pads(
        Pad(side.glue, d, side.strength)
        for d, side in tile.sides()
        if side.glue is not None and d not in inputs
    )
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


def decode_cells(blocks: Mapping[Coord, BlockState], decode) -> dict[Coord, int]:
    """Each committed block's tile, from `decode(state)`; collecting blocks are undefined."""
    cells: dict[Coord, int] = {}
    for coord, state in blocks.items():
        try:
            tile = decode(state)
        except RepresentationError as exc:
            raise RepresentationError(f"block {coord}: {exc}") from exc
        if tile is not None:
            cells[coord] = tile
    if not cells:
        raise RepresentationError("no committed blocks; nothing to decode")
    return cells


def decode_assembly(macro: MacroAssembly, cs: CompiledSystem) -> Assembly:
    """Map every committed block to its tile; collecting blocks are undefined."""
    return Assembly(decode_cells(macro.blocks, lambda state: decode_block(state, cs)))
