"""Block-level simulation driven by the compiled lookup table.

Each grid cell of the source system becomes a block.  Completed blocks push
their output pads at empty or collecting neighbours; a block whose received
pad strengths sum to exactly 2 probes the layout, draws random bits, commits
to a tile by running the table lookup on its input address, and finally
exposes the committed tile's output pads.  Decoding a block back to a tile is
defined from the committed phase onward.

`macro_explore` keeps no cells per state.  It interns each distinct block
state as a small code and gives each coordinate a slot, so a state is a
packed key with one character per slot, and a child's key is its parent's
with one character spliced in.  Its `MacroStates` materialise a
`MacroAssembly` per key only when one is read, and its edges name states by
id.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections.abc import Mapping
from dataclasses import dataclass
from enum import IntEnum
from operator import itemgetter
from typing import NamedTuple

from .atam import (
    DIRECTIONS,
    OFFSETS,
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


def _touched(coord: Coord, state: BlockState) -> tuple[Coord, ...]:
    """Where events can change when `coord` becomes `state`: its neighbours once complete."""
    if state.phase is not BlockPhase.COMPLETE:
        return (coord,)
    x, y = coord
    return (coord, *[(x + dx, y + dy) for dx, dy in OFFSETS])


def macro_frontier(cs: CompiledSystem, macro: MacroAssembly) -> tuple[MacroEvent, ...]:
    """Every event currently enabled, in deterministic order."""
    blocks = macro.blocks
    coords = {c for coord, state in blocks.items() for c in _touched(coord, state)}
    events = [event for coord in coords for event in _events_at(cs, blocks, coord)]
    events.sort(key=MacroEvent.sort_key)
    return tuple(events)


def _next_state(
    cs: CompiledSystem,
    state: BlockState | None,
    event: MacroEvent,
    *,
    bits: str | None = None,
) -> BlockState:
    """The state of the block at `event.coord` after `event`; `state` is the one before.

    A probe stores `bits`; a commit looks up with `bits` in place of the stored
    ones, and the committed block keeps none.
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
        return BlockState(BlockPhase.TYPE_DETECTED, state.input_pads, kind, bits)

    if event.kind is EventKind.COMMIT:
        if state.phase is not BlockPhase.TYPE_DETECTED:
            raise MacroEventError(
                f"commit needs a type-detected block, got {state.phase.name} at {coord}"
            )
        if bits is None:
            bits = state.random_bits
        if bits is None:
            raise MacroEventError(f"block {coord} has no random bits to commit with")
        address = address_of(state.input_pads, cs.glues)
        try:
            outcome, _ = trace_lookup(cs, address.value, bits)
        except (AddressRangeError, EmptyEntryError) as exc:
            raise MacroEventError(
                f"no tile attaches at {coord} for address {address.value}: {exc}"
            ) from exc
        committed = BlockState(
            BlockPhase.COMMITTED,
            state.input_pads,
            state.input_kind,
            None,
            outcome.tile_candidates[outcome.selected_index],
            outcome.sub_entry.pads,
        )
        _decode_at(cs, coord, committed)  # the block must represent the looked-up tile
        return committed

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
    a step recomputes only the events at its `_touched` coordinates, so it
    costs the same however large the assembly has grown.  Once `bound`
    blocks exist, arrivals at empty coordinates are held back, and the run
    is truncated if any was.
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

    for coord in _touched((0, 0), blocks[(0, 0)]):
        refresh(coord)
    applied: list[MacroEvent] = []
    log: list[str] = []
    truncated = False
    while len(applied) < max_events:
        truncated = held_back  # a held-back arrival stays enabled for good
        if not enabled:
            break
        event = by_key[enabled[rng.randrange(len(enabled))]]
        bits = None
        if event.kind is EventKind.PROBE:
            bits = format(rng.getrandbits(cs.random_width), f"0{cs.random_width}b")
        coord = event.coord
        grew = coord not in blocks
        state = blocks[coord] = _next_state(cs, blocks.get(coord), event, bits=bits)
        for touched in _touched(coord, state):
            refresh(touched)
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


class MacroEdge(NamedTuple):
    """One applied event, between the ids of the state it leaves and the one it reaches."""

    parent: int
    child: int
    event: MacroEvent


class MacroStates(Mapping):
    """An exploration's states by id, stored packed and materialised on read.

    Each distinct block state has a code, its index in `alphabet` (code 0 is
    no block), and each coordinate a slot, its index in `coords`.  A state's
    packed key, `packed[id]`, holds `chr(code)` for each slot, `'\\0'` where
    the slot is empty, and no trailing empty slots, so equal states have
    equal keys.  `states[id]` builds that state's `MacroAssembly`, its
    materialised view, and keeps nothing.
    """

    def __init__(
        self, packed: list[str], coords: list[Coord], alphabet: list[BlockState | None]
    ):
        self.packed = packed
        self.coords = coords
        self.alphabet = alphabet
        self._slots = {coord: s for s, coord in enumerate(coords)}

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self):
        return iter(range(len(self.packed)))

    def __getitem__(self, state_id: int) -> MacroAssembly:
        if not (isinstance(state_id, int) and 0 <= state_id < len(self.packed)):
            raise KeyError(state_id)
        coords, alphabet = self.coords, self.alphabet
        return MacroAssembly(
            {
                coords[s]: alphabet[ord(ch)]
                for s, ch in enumerate(self.packed[state_id])
                if ch != "\0"
            }
        )

    def block(self, state_id: int, coord: Coord) -> BlockState | None:
        """The block at `coord` in state `state_id`, read off its packed key."""
        key = self.packed[state_id]
        s = self._slots.get(coord, len(key))
        return self.alphabet[ord(key[s])] if s < len(key) else None


@dataclass
class MacroExplorationResult:
    states: MacroStates
    edges: tuple[MacroEdge, ...]
    seed_key: int
    truncated: bool
    bound: int


def macro_explore(cs: CompiledSystem, bound: int) -> MacroExplorationResult:
    """Closure of macro states reachable within `bound` blocks.

    Commits branch over every possible random-bit value; a committed block
    keeps no bits, so commit children collapse to one state per distinct
    outcome.  States are packed keys (see `MacroStates`): a child's key is
    its parent's with one character replaced, and no cells are built.  A
    child seen for the first time gets its parent's enabled events, redone
    at the `_touched` coordinates.  The events at a coordinate depend only on
    the codes at it and at its four neighbours, and a block's next states
    only on its own state and the event's kind and pad, so each is computed
    once per call; an enabled event then carries its outcomes from state to
    state.  A transition that raises is not stored: the exploration stops
    where it first meets it, with that block's coordinate.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    start = seed_macro(cs)
    alphabet: list[BlockState | None] = [None]
    chars: dict[BlockState, str] = {}
    coords: list[Coord] = []
    slots: dict[Coord, int] = {}
    # slot -> (getter of the characters at it and its four neighbours,
    # those characters -> the enabled events there, as front entries)
    nearby: dict[int, tuple] = {}

    def char_of(state: BlockState) -> str:
        ch = chars.get(state)
        if ch is None:
            ch = chars[state] = chr(len(alphabet))
            alphabet.append(state)
        return ch

    def slot_of(coord: Coord) -> int:
        s = slots.get(coord)
        if s is None:
            s = slots[coord] = len(coords)
            coords.append(coord)
        return s

    def touched_slots(coord: Coord, state: BlockState) -> tuple:
        out = []
        for c in _touched(coord, state):
            s = slot_of(c)
            near = nearby.get(s)
            if near is None:
                x, y = c
                around = [slot_of((x + dx, y + dy)) for dx, dy in OFFSETS]
                near = nearby[s] = (itemgetter(s, *around), {})
            out.append((s, *near))
        return tuple(out)

    def entries_at(s: int, near: tuple[str, ...]) -> list[list]:
        x, y = coord = coords[s]
        cells = zip((coord, *((x + dx, y + dy) for dx, dy in OFFSETS)), near)
        blocks = {c: alphabet[ord(ch)] for c, ch in cells if ch != "\0"}
        return [[e.sort_key(), e, s, near[0], None] for e in _events_at(cs, blocks, coord)]

    bit_values = [
        format(b, f"0{cs.random_width}b") for b in range(2**cs.random_width)
    ]
    # (character, kind, pad) -> the distinct next states, in bit order for a commit
    next_states: dict[tuple, tuple[BlockState, ...]] = {}

    def outcomes(entry: list) -> tuple:
        """Per next state: its character, and (slot, getter, events memo) and
        the bare slot of each coordinate it touches."""
        _, event, _, here, _ = entry
        rule = (here, event.kind, event.pad)
        states = next_states.get(rule)
        if states is None:
            state = alphabet[ord(here)]
            if event.kind is EventKind.COMMIT:
                states = tuple(
                    dict.fromkeys(
                        _next_state(cs, state, event, bits=bits) for bits in bit_values
                    )
                )
            else:
                states = (_next_state(cs, state, event),)
            next_states[rule] = states
        out = []
        for state in states:
            touched = touched_slots(event.coord, state)
            out.append((char_of(state), touched, tuple(t[0] for t in touched)))
        return tuple(out)

    slot_of((0, 0))
    first = [(e, slot_of(e.coord)) for e in macro_frontier(cs, start)]
    start_key = char_of(start[(0, 0)])
    padded = start_key.ljust(len(coords), "\0")
    # enabled events, carried from parent to child and dropped once expanded;
    # an entry is [sort key, event, slot, character there, outcomes once applied]
    fronts = {0: [[e.sort_key(), e, s, padded[s], None] for e, s in first]}
    packed = [start_key]
    ids = {start_key: 0}
    edges: list[MacroEdge] = []
    truncated = False
    for parent, key in enumerate(packed):
        front = fronts.pop(parent)
        full = len(key) - key.count("\0") >= bound
        for entry in front:
            if full and entry[3] == "\0":
                truncated = True  # every event at an empty coordinate is an arrival
                continue
            outs = entry[4]
            if outs is None:
                outs = entry[4] = outcomes(entry)
            event, s = entry[1], entry[2]
            head, tail = key[:s].ljust(s, "\0"), key[s + 1 :]
            for ch, touched, gone in outs:
                child_key = head + ch + tail
                child = ids.get(child_key)
                if child is None:
                    child = ids[child_key] = len(packed)
                    packed.append(child_key)
                    padded = child_key.ljust(len(coords), "\0")
                    events = [e for e in front if e[2] not in gone]
                    for t, near_of, memo in touched:
                        near = near_of(padded)
                        found = memo.get(near)
                        if found is None:
                            found = memo[near] = entries_at(t, near)
                        events += found
                    events.sort()
                    fronts[child] = events
                edges.append(MacroEdge(parent, child, event))
    states = MacroStates(packed, coords, alphabet)
    return MacroExplorationResult(states, tuple(edges), 0, truncated, bound)


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
