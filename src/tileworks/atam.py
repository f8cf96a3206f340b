"""Core model for temperature-2 tile self-assembly.

Square tiles carry a glue (label plus integer strength) on each of their four
sides.  A tile may attach to an assembly at an empty position when the glues it
shares with already-placed neighbours match on both label and strength and the
matching strengths sum to at least the temperature, which is fixed at 2
throughout this package.  Mismatching glues never block an attachment; they
simply contribute nothing.

Assemblies are finite partial maps from grid positions to tile-type indices,
always seeded with a single designated tile at the origin.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import Iterator, NamedTuple

TEMPERATURE = 2

Coord = tuple[int, int]


class WorkbenchError(Exception):
    """Base class for every error this package raises on purpose."""


class OccupiedPositionError(WorkbenchError):
    pass


class IllegalAttachmentError(WorkbenchError):
    """Attachment below the temperature threshold; carries the computed strength."""

    def __init__(self, pos: Coord, tile: int, strength: int):
        super().__init__(
            f"tile {tile} cannot attach at {pos}: binding strength {strength} < {TEMPERATURE}"
        )
        self.pos = pos
        self.tile = tile
        self.strength = strength


class Direction(Enum):
    N = (0, 1)
    E = (1, 0)
    S = (0, -1)
    W = (-1, 0)

    @property
    def vector(self) -> Coord:
        return self.value

    @property
    def opposite(self) -> "Direction":
        return DIRECTIONS[_DIR_INDEX[self] ^ 2]

    def step(self, pos: Coord) -> Coord:
        dx, dy = self.value
        return (pos[0] + dx, pos[1] + dy)


DIRECTIONS = (Direction.N, Direction.E, Direction.S, Direction.W)
_DIR_INDEX = {d: i for i, d in enumerate(DIRECTIONS)}
# OFFSETS[k] steps toward DIRECTIONS[k]; the facing side of side k is k ^ 2.
OFFSETS = tuple(d.vector for d in DIRECTIONS)


def direction_order(d: Direction) -> int:
    """Canonical N, E, S, W ordering used everywhere sorting is needed."""
    return _DIR_INDEX[d]


@dataclass(frozen=True)
class SidePad:
    """Glue on one side of a tile type.  The null glue is label None, strength 0."""

    glue: str | None
    strength: int

    def __post_init__(self):
        if (self.glue is None) != (self.strength == 0):
            raise ValueError(f"null glue iff strength 0, got {self.glue!r}:{self.strength}")
        if self.strength not in (0, 1, 2):
            raise ValueError(f"strength must be 0, 1 or 2, got {self.strength}")


NULL_PAD = SidePad(None, 0)


@dataclass(frozen=True)
class Pad:
    """An oriented positive-strength glue: what one side of a placed tile offers."""

    glue: str
    direction: Direction
    strength: int

    def __post_init__(self):
        if not isinstance(self.glue, str) or not self.glue:
            raise ValueError("pad glue must be a nonempty label")
        if self.strength not in (1, 2):
            raise ValueError(f"pad strength must be 1 or 2, got {self.strength}")

    def sort_key(self) -> tuple[int, str, int]:
        return (direction_order(self.direction), self.glue, self.strength)


def _as_side(value) -> SidePad:
    if value is None:
        return NULL_PAD
    if isinstance(value, SidePad):
        return value
    glue, strength = value
    return SidePad(glue, strength)


@dataclass(frozen=True)
class TileType:
    name: str
    north: SidePad = NULL_PAD
    east: SidePad = NULL_PAD
    south: SidePad = NULL_PAD
    west: SidePad = NULL_PAD

    @classmethod
    def make(cls, name: str, n=None, e=None, s=None, w=None) -> "TileType":
        """Build a tile from (glue, strength) pairs; None means the null glue."""
        return cls(name, _as_side(n), _as_side(e), _as_side(s), _as_side(w))

    def side(self, d: Direction) -> SidePad:
        return (self.north, self.east, self.south, self.west)[_DIR_INDEX[d]]

    def sides(self) -> Iterator[tuple[Direction, SidePad]]:
        for d in DIRECTIONS:
            yield d, self.side(d)

    def pads(self) -> tuple[Pad, ...]:
        """The positive-strength sides as pads, in N, E, S, W (`Pad.sort_key`) order."""
        return tuple(
            Pad(side.glue, d, side.strength) for d, side in self.sides() if side.glue is not None
        )


class GlueTables(NamedTuple):
    """Glue lookups of one tile system, indexed by side k (as in DIRECTIONS).

    `match[k][other]` maps each tile whose side k bonds with the facing side of
    a neighbour `other` to the bond's strength (equal label and strength, not
    null).  `clash[k][tile]` holds the neighbours that disagree with `tile`
    across side k: either glue has positive strength and the two differ.
    """

    match: list[list[dict[int, int]]]
    clash: list[list[set[int]]]


def _glue_tables(tiles: tuple[TileType, ...]) -> GlueTables:
    sides = [[(p.glue, p.strength) for p in (t.north, t.east, t.south, t.west)] for t in tiles]
    match = [[{} for _ in tiles] for _ in DIRECTIONS]
    clash = [[set() for _ in tiles] for _ in DIRECTIONS]
    for k in range(4):
        for i, mine in enumerate(sides):
            for j, theirs in enumerate(sides):
                a, b = mine[k], theirs[k ^ 2]
                if a[1] and a == b:
                    match[k][j][i] = a[1]
                elif a[1] or b[1]:
                    clash[k][i].add(j)
    return GlueTables(match, clash)


@dataclass(frozen=True)
class TileSystem:
    """A singly seeded tile set at temperature 2."""

    tiles: tuple[TileType, ...]
    seed: int
    temperature: int = TEMPERATURE
    name: str = ""
    # derived from `tiles`, so it takes no part in equality, hashing or repr
    glue_tables: GlueTables = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.temperature != TEMPERATURE:
            raise ValueError(f"only temperature {TEMPERATURE} is supported")
        if not self.tiles:
            raise ValueError("a tile system needs at least one tile type")
        if not 0 <= self.seed < len(self.tiles):
            raise ValueError(f"seed index {self.seed} out of range")
        names = [t.name for t in self.tiles]
        if len(set(names)) != len(names):
            raise ValueError("tile type names must be unique")
        object.__setattr__(self, "glue_tables", _glue_tables(self.tiles))

    def tile_index(self, name: str) -> int:
        for i, t in enumerate(self.tiles):
            if t.name == name:
                return i
        raise KeyError(name)

    @property
    def seed_tile(self) -> TileType:
        return self.tiles[self.seed]


class Assembly:
    """Immutable nonempty partial map from positions to tile-type indices.

    `blocks.MacroAssembly` reuses it with block states as the cell values.
    """

    __slots__ = ("_cells", "_key")

    def __init__(self, cells: Mapping[Coord, int]):
        if not cells:
            raise ValueError("an assembly must be nonempty")
        self._cells = dict(cells)
        self._key = frozenset(self._cells.items())

    @classmethod
    def _trusted(cls, cells: dict[Coord, int], key: frozenset) -> "Assembly":
        """Wrap `cells` and its already computed key without copying either."""
        asm = cls.__new__(cls)
        asm._cells = cells
        asm._key = key
        return asm

    @property
    def key(self) -> frozenset:
        """Canonical value identity: the set of (position, tile index) pairs."""
        return self._key

    def get(self, pos: Coord) -> int | None:
        return self._cells.get(pos)

    def __getitem__(self, pos: Coord) -> int:
        return self._cells[pos]

    def __contains__(self, pos: Coord) -> bool:
        return pos in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Assembly) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self._cells)} cells)"

    def items(self) -> Iterator[tuple[Coord, int]]:
        return iter(self._cells.items())

    def sorted_items(self) -> list[tuple[Coord, int]]:
        return sorted(self._cells.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def with_tile(self, pos: Coord, tile: int) -> "Assembly":
        if pos in self._cells:
            raise OccupiedPositionError(f"position {pos} already holds a tile")
        cells = dict(self._cells)
        cells[pos] = tile
        return Assembly._trusted(cells, self._key | {(pos, tile)})

    def bounds(self) -> tuple[int, int, int, int]:
        xs = [p[0] for p in self._cells]
        ys = [p[1] for p in self._cells]
        return min(xs), min(ys), max(xs), max(ys)


def seed_assembly(tas: TileSystem) -> Assembly:
    return Assembly({(0, 0): tas.seed})


def around(coord: Coord) -> tuple[Coord, ...]:
    """`coord` and its four neighbours, in N, E, S, W order."""
    x, y = coord
    return (coord, (x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y))


def _bonds_at(match, cells: Mapping[Coord, int], pos: Coord) -> dict[int, int]:
    """Each tile that bonds at `pos`, with its total strength there."""
    x, y = pos
    totals: dict[int, int] = {}
    for k, (dx, dy) in enumerate(OFFSETS):
        other = cells.get((x + dx, y + dy))
        if other is not None:
            for tile, s in match[k][other].items():
                totals[tile] = totals.get(tile, 0) + s
    return totals


def binding_strength(tas: TileSystem, asm: Assembly, pos: Coord, tile: int) -> int:
    """Total matching glue strength `tile` would bind with at `pos`."""
    if pos in asm:
        raise OccupiedPositionError(f"position {pos} already holds a tile")
    return _bonds_at(tas.glue_tables.match, asm._cells, pos).get(tile, 0)


def _attachments(tas: TileSystem):
    """The source event rule, as `events_at(cells, pos)`: each tile that may attach
    at `pos` as ((y, x, tile), (pos, tile, strength, clash)), clash being the first
    side k where it disagrees with a neighbour (see `GlueTables`) or None."""
    match, clash = tas.glue_tables

    def first_clash(cells: Mapping[Coord, int], pos: Coord, tile: int) -> int | None:
        x, y = pos
        for k, (dx, dy) in enumerate(OFFSETS):
            if cells.get((x + dx, y + dy)) in clash[k][tile]:
                return k
        return None

    def events_at(cells: Mapping[Coord, int], pos: Coord) -> list[tuple]:
        x, y = pos
        bonds = () if pos in cells else _bonds_at(match, cells, pos).items()
        return [
            ((y, x, tile), (pos, tile, s, first_clash(cells, pos, tile)))
            for tile, s in bonds
            if s >= TEMPERATURE
        ]

    return events_at


def _around(pos: Coord, _) -> tuple[Coord, ...]:
    """Where attachments can change when a tile lands at `pos`: there and next to it."""
    return around(pos)


def enabled(cells: Mapping, events_at, touched) -> list[tuple]:
    """Every (sort key, payload, coordinate) enabled in `cells`, sorted: the
    `events_at` of each coordinate some cell is `touched` by (see `explore_packed`)."""
    coords = {c for coord, value in cells.items() for c in touched(coord, value)}
    return sorted((k, payload, c) for c in coords for k, payload in events_at(cells, c))


def frontier(tas: TileSystem, asm: Assembly) -> frozenset[tuple[Coord, int]]:
    """All (position, tile) pairs that may legally attach to `asm`."""
    return frozenset(a[:2] for _, a, _ in enabled(asm._cells, _attachments(tas), _around))


def attach(tas: TileSystem, asm: Assembly, pos: Coord, tile: int) -> Assembly:
    """Attach one tile, validating the temperature threshold."""
    strength = binding_strength(tas, asm, pos, tile)
    if strength < TEMPERATURE:
        raise IllegalAttachmentError(pos, tile, strength)
    return asm.with_tile(pos, tile)


def is_terminal(tas: TileSystem, asm: Assembly) -> bool:
    return not frontier(tas, asm)


@dataclass(frozen=True)
class AssemblySequence:
    """A legal attachment history starting from the seed assembly.

    The steps are checked as `attach` checks them, on one growing cell map,
    and only the final assembly is kept: linear time and memory in the steps.
    """

    system: TileSystem
    steps: tuple[tuple[Coord, int], ...]
    _result: Assembly = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        match = self.system.glue_tables.match
        cells = {(0, 0): self.system.seed}
        for pos, tile in self.steps:
            if pos in cells:
                raise OccupiedPositionError(f"position {pos} already holds a tile")
            strength = _bonds_at(match, cells, pos).get(tile, 0)
            if strength < TEMPERATURE:
                raise IllegalAttachmentError(pos, tile, strength)
            cells[pos] = tile
        object.__setattr__(self, "_result", Assembly(cells))

    def __len__(self) -> int:
        return len(self.steps)

    def assemblies(self) -> tuple[Assembly, ...]:
        """Seed assembly followed by the state after each step, rebuilt on each call."""
        states = [seed_assembly(self.system)]
        for pos, tile in self.steps:
            states.append(states[-1].with_tile(pos, tile))
        return tuple(states)

    def result(self) -> Assembly:
        return self._result


class AttachmentEdge(NamedTuple):
    """One legal attachment, between the ids of the assemblies it leaves and reaches.

    `strength` is the total strength the tile binds with, and `clash` the
    first side k (as in DIRECTIONS, N, E, S, W) where it disagrees with its
    neighbour in the child (see `GlueTables`), or None.  Both are computed
    when the attachment is, once per distinct neighbourhood.
    """

    parent: int
    child: int
    pos: Coord
    tile: int
    strength: int
    clash: int | None = None


class PackedStates(Mapping):
    """An exploration's states by id, stored packed and materialised on read.

    Each distinct cell value has a code, its index in `alphabet` (code 0 is
    an empty cell), and each coordinate a slot, its index in `coords`.  A
    state's packed key, `packed[id]`, holds `chr(code)` for each slot,
    `'\\0'` where the slot is empty, and no trailing empty slots, so equal
    states have equal keys.  `states[id]` builds that state as a `view`
    (`Assembly` or `blocks.MacroAssembly`) and keeps nothing.
    """

    def __init__(self, packed: list[str], coords: list[Coord], alphabet: list, view: type):
        self.packed = packed
        self.coords = coords
        self.alphabet = alphabet
        self.view = view
        self._slots = {coord: s for s, coord in enumerate(coords)}

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self):
        return iter(range(len(self.packed)))

    def _pairs(self, state_id: int):
        coords, alphabet = self.coords, self.alphabet
        key = self.packed[state_id]
        return ((coords[s], alphabet[ord(ch)]) for s, ch in enumerate(key) if ch != "\0")

    def __getitem__(self, state_id: int) -> Assembly:
        if not (isinstance(state_id, int) and 0 <= state_id < len(self.packed)):
            raise KeyError(state_id)
        return self.view(dict(self._pairs(state_id)))

    def key(self, state_id: int) -> frozenset:
        """The frozenset key of `self[state_id]`, without building it."""
        return frozenset(self._pairs(state_id))

    def cell(self, state_id: int, coord: Coord):
        """The value at `coord` in state `state_id`, read off its packed key."""
        key = self.packed[state_id]
        s = self._slots.get(coord, len(key))
        return self.alphabet[ord(key[s])] if s < len(key) else None


class KeyedStates(Mapping):
    """`PackedStates` keyed by each state's frozenset key, in id order; keys
    and values are built when read, and the first lookup indexes the keys."""

    def __init__(self, states: PackedStates):
        self.states = states

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return map(self.states.key, range(len(self.states)))

    @cached_property
    def _ids(self) -> dict[frozenset, int]:
        return {k: i for i, k in enumerate(self)}

    def __contains__(self, key) -> bool:
        return key in self._ids

    def __getitem__(self, key: frozenset) -> Assembly:
        return self.states[self._ids[key]]


@dataclass
class ExplorationResult:
    """`assemblies` is a `KeyedStates` view of `states`; edges, `seed_key` and `cut`
    (the assemblies at the bound whose frontier was dropped) name ids."""

    assemblies: Mapping[frozenset, Assembly]
    edges: tuple[AttachmentEdge, ...]
    seed_key: int
    cut: tuple[int, ...]
    bound: int

    @property
    def states(self) -> PackedStates:
        return self.assemblies.states

    @property
    def truncated(self) -> bool:  # the producible set continues past the bound
        return bool(self.cut)

    def terminal_keys(self, tas: TileSystem) -> list[int]:
        """Ids of the assemblies with no out-edge that were not cut (`tas` is not
        read), fewest tiles first, then by sorted cells."""
        ends = set(self.states).difference((e.parent for e in self.edges), self.cut)
        keys = {i: self.states.key(i) for i in ends}
        return sorted(keys, key=lambda i: (len(keys[i]), sorted(keys[i])))


def explore_packed(start: Assembly, bound: int, events_at, successors, touched, edge):
    """Breadth-first closure of the states reachable from `start` within `bound` cells.

    `explore` runs it over tiles and `macro.macro_explore` over block states.
    Each supplies `events_at(cells, coord)`, the (sort key, payload) of every
    event at `coord`, given the cells at it and its four neighbours;
    `successors(value, payload)`, the distinct values an event leaves where
    `value` was (None if empty); `touched(coord, value)`, where events can
    change when `coord` takes `value`; and `edge`, a `NamedTuple` type whose
    fields are the parent id, the child id and then the payload's items.

    States are packed keys (see `PackedStates`): a child's key is its parent's
    with one character replaced.  The start's events come from one `enabled`
    scan; a new child gets its parent's, redone at the touched coordinates.
    Events are computed once per (slot, neighbourhood), and their outcomes once
    per event.  A state at the bound is cut if it had events at empty
    coordinates, which are dropped.  A transition that raises stops the
    exploration.  Returns the states, the edges and the cut ids, in order.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    coords: list[Coord] = []
    slots: dict[Coord, int] = {}
    alphabet: list = [None]
    codes: dict = {None: 0}
    # slot -> (slot, getter of the characters at it and its four neighbours,
    # those characters -> the enabled events there, as front entries)
    nearby: dict[int, tuple] = {}

    def intern(index: dict, items: list, item) -> int:
        if item not in index:
            index[item] = len(items)
            items.append(item)
        return index[item]

    def near_of(coord: Coord) -> tuple:
        s = intern(slots, coords, coord)
        if s not in nearby:
            nearby[s] = (s, itemgetter(*[intern(slots, coords, c) for c in around(coord)]), {})
        return nearby[s]

    def entries_at(s: int, near: tuple[str, ...]) -> list[list]:
        cells = {c: alphabet[ord(ch)] for c, ch in zip(around(coords[s]), near) if ch != "\0"}
        return [[k, payload, s, near[0], None] for k, payload in events_at(cells, coords[s])]

    def outcome(s: int, value) -> tuple:
        """`value`'s character, and the `nearby` entries and slots it touches at slot `s`."""
        hit = tuple(near_of(c) for c in touched(coords[s], value))
        return chr(intern(codes, alphabet, value)), hit, tuple(t[0] for t in hit)

    chars = {intern(slots, coords, c): chr(intern(codes, alphabet, v)) for c, v in start.items()}
    # enabled events, carried from parent to child and dropped once expanded;
    # an entry is [sort key, payload, slot, character there, outcomes once applied]
    fronts = {0: [
        [k, p, intern(slots, coords, c), chr(codes[start.get(c)]), None]
        for k, p, c in enabled(start._cells, events_at, touched)
    ]}
    start_key = "".join(chars.get(s, "\0") for s in range(max(chars) + 1))
    packed = [start_key]
    ids = {start_key: 0}
    edges: list = []
    # builds an `edge` from its fields without a Python-level call per edge
    new_edge = tuple.__new__
    cut: list[int] = []
    for parent, key in enumerate(packed):
        front = expand = fronts.pop(parent)
        if len(key) - key.count("\0") >= bound:
            expand = [entry for entry in front if entry[3] != "\0"]
            if len(expand) < len(front):
                cut.append(parent)
        for entry in expand:
            _, payload, s, here, outs = entry
            if outs is None:
                outs = entry[4] = [outcome(s, v) for v in successors(alphabet[ord(here)], payload)]
            head, tail = key[:s].ljust(s, "\0"), key[s + 1 :]
            for ch, hit, gone in outs:
                child_key = head + ch + tail
                child = ids.get(child_key)
                if child is None:
                    child = ids[child_key] = len(packed)
                    packed.append(child_key)
                    padded = child_key.ljust(len(coords), "\0")
                    events = [e for e in front if e[2] not in gone]
                    for t, getter, memo in hit:
                        near = getter(padded)
                        found = memo.get(near)
                        if found is None:
                            found = memo[near] = entries_at(t, near)
                        events += found
                    events.sort()
                    fronts[child] = events
                edges.append(new_edge(edge, (parent, child, *payload)))
    return PackedStates(packed, coords, alphabet, type(start)), edges, cut


def walk(start: Assembly, bound: int | None, max_steps: int, rng, events_at, step, touched):
    """A random run from `start` of up to `max_steps` events, each drawn by `rng`
    uniformly among the enabled ones in sort-key order.

    `events_at` and `touched` are as in `explore_packed`; `step(value, payload)`
    is the value an event leaves where `value` was.  The sort keys (unique per
    event) stay sorted, and a step redoes only its touched coordinates, so it
    costs the same however large the cells grow.  Once `bound` cells exist,
    events at empty coordinates, which stay enabled, are held back and the run
    is truncated.  Returns the cells, the payloads drawn and truncation.
    """
    cells = dict(start._cells)
    keys: list[tuple] = []
    drawn: dict[tuple, tuple] = {}  # sort key -> (coordinate, payload)
    at: dict[Coord, list] = {}  # coordinate -> its enabled (sort key, payload) pairs
    held_back = False

    def refresh(coord: Coord) -> None:
        nonlocal held_back
        for k, _ in at.pop(coord, ()):
            del keys[bisect_left(keys, k)]
            del drawn[k]
        events = events_at(cells, coord)
        if not events:
            return
        if bound is not None and len(cells) >= bound and coord not in cells:
            held_back = True
            return
        at[coord] = events
        for k, payload in events:
            insort(keys, k)
            drawn[k] = (coord, payload)

    for coord in {c for coord, value in cells.items() for c in touched(coord, value)}:
        refresh(coord)
    chosen: list = []
    truncated = False
    while len(chosen) < max_steps:
        truncated = held_back
        if not keys:
            break
        coord, payload = drawn[keys[rng.randrange(len(keys))]]
        grew = coord not in cells
        value = cells[coord] = step(cells.get(coord), payload)
        for c in touched(coord, value):
            refresh(c)
        if grew and len(cells) == bound:  # hold back the events enabled so far
            for empty in [c for c in at if c not in cells]:
                refresh(empty)
        chosen.append(payload)
    return cells, chosen, truncated


def explore(tas: TileSystem, bound: int) -> ExplorationResult:
    """Breadth-first closure of all producible assemblies up to `bound` tiles.

    An assembly at the bound that still had a nonempty frontier is cut: the
    producible set continues past what was enumerated.
    """
    states, edges, cut = explore_packed(
        seed_assembly(tas), bound, _attachments(tas),
        lambda _, attachment: (attachment[1],), _around, AttachmentEdge,
    )
    return ExplorationResult(KeyedStates(states), tuple(edges), 0, tuple(cut), bound)


def sample_sequence(tas: TileSystem, rng_seed: int, max_steps: int) -> AssemblySequence:
    """One uniformly random attachment history, reproducible from `rng_seed`."""
    _, chosen, _ = walk(
        seed_assembly(tas), None, max_steps, random.Random(rng_seed),
        _attachments(tas), lambda _, attachment: attachment[1], _around,
    )
    return AssemblySequence(tas, tuple(a[:2] for a in chosen))
