"""Core model for temperature-2 tile self-assembly.

Square tiles carry a glue (label plus integer strength) on each of their four
sides.  A tile may attach to an assembly at an empty position when the glues it
shares with already-placed neighbours match on both label and strength and the
matching strengths sum to at least the temperature, which is fixed at 2
throughout this package.  Mismatching glues never block an attachment; they
simply contribute nothing.

A side is a `Direction`, valued by its index k (N, E, S, W are 0 to 3), so
side tables are indexed by the side itself and the facing side is k ^ 2.
Assemblies are finite partial maps from grid positions to tile-type indices,
always seeded with a single designated tile at the origin, and keyed by
their cells when the key is first read.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, insort
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import IntEnum
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


class Direction(IntEnum):
    """A side, valued by its index k: the facing side is k ^ 2."""

    N = 0
    E = 1
    S = 2
    W = 3

    @property
    def vector(self) -> Coord:
        return OFFSETS[self]

    @property
    def opposite(self) -> "Direction":
        return DIRECTIONS[self ^ 2]

    def step(self, pos: Coord) -> Coord:
        dx, dy = OFFSETS[self]
        return (pos[0] + dx, pos[1] + dy)


DIRECTIONS = tuple(Direction)
# OFFSETS[k] steps toward DIRECTIONS[k]
OFFSETS = ((0, 1), (1, 0), (0, -1), (-1, 0))


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


@dataclass(frozen=True, slots=True)
class Pad:
    """An oriented positive-strength glue: what one side of a placed tile offers.

    Slotted: a block state holds its pads and every arrival event builds one,
    so a pad carries no per-instance `__dict__`.
    """

    glue: str
    direction: Direction
    strength: int

    def __post_init__(self):
        if not isinstance(self.glue, str) or not self.glue:
            raise ValueError("pad glue must be a nonempty label")
        if self.strength not in (1, 2):
            raise ValueError(f"pad strength must be 1 or 2, got {self.strength}")

    def sort_key(self) -> tuple[int, str, int]:
        return (self.direction, self.glue, self.strength)


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
        return (self.north, self.east, self.south, self.west)[d]

    def sides(self) -> Iterator[tuple[Direction, SidePad]]:
        for d in DIRECTIONS:
            yield d, self.side(d)

    def pads(self) -> tuple[Pad, ...]:
        """The positive-strength sides as pads, in N, E, S, W (`Pad.sort_key`) order."""
        sides = zip(DIRECTIONS, (self.north, self.east, self.south, self.west))
        return tuple(Pad(side.glue, d, side.strength) for d, side in sides if side.glue is not None)


def clashes(a: SidePad, b: SidePad | None) -> bool:
    """Whether facing sides `a` and `b` disagree: either has positive strength and
    the two differ.  `b` is None where the neighbour is empty, which never clashes."""
    return b is not None and (a.strength > 0 or b.strength > 0) and a != b


def _match(tiles: tuple[TileType, ...]) -> list[list[dict[int, int]]]:
    """`match[k][other]` maps each tile whose side k bonds with the facing side of
    a neighbour `other` (equal label and strength, not null) to the bond's
    strength: one bucket per positive side k, shared by every `other` facing it."""
    match = []
    for k in range(4):
        buckets: dict[SidePad, dict[int, int]] = {}
        for i, t in enumerate(tiles):
            side = t.side(k)
            if side.strength:
                buckets.setdefault(side, {})[i] = side.strength
        match.append([buckets.get(t.side(k ^ 2), {}) for t in tiles])
    return match


@dataclass(frozen=True)
class TileSystem:
    """A singly seeded tile set at temperature 2.  It keeps only `_match`'s table,
    linear in the tiles; a clash is read off the sides when asked (`clashes`)."""

    tiles: tuple[TileType, ...]
    seed: int
    temperature: int = TEMPERATURE
    name: str = ""
    # derived from `tiles`, so it takes no part in equality, hashing or repr
    match: list[list[dict[int, int]]] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "match", _match(self.tiles))

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

    Its key is built when first read: most states the engines hand out are
    only decoded or rendered.  `blocks.MacroAssembly` reuses it with block
    states as the cell values.
    """

    __slots__ = ("_cells", "_key")

    def __init__(self, cells: Mapping[Coord, int]):
        if not cells:
            raise ValueError("an assembly must be nonempty")
        self._cells, self._key = dict(cells), None

    @property
    def key(self) -> frozenset:
        """Canonical value identity: the set of (position, tile index) pairs."""
        if self._key is None:
            self._key = frozenset(self._cells.items())
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
        return isinstance(other, Assembly) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self._cells)} cells)"

    def items(self) -> Iterator[tuple[Coord, int]]:
        return iter(self._cells.items())

    def sorted_items(self) -> list[tuple[Coord, int]]:
        return sorted(self._cells.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def with_tile(self, pos: Coord, tile: int) -> "Assembly":
        if pos in self._cells:
            raise OccupiedPositionError(f"position {pos} already holds a tile")
        return Assembly({**self._cells, pos: tile})

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
    return _bonds_at(tas.match, asm._cells, pos).get(tile, 0)


def _attachments(tas: TileSystem):
    """The source event rule, as `events_at(cells, pos)`: each tile that may attach
    at `pos` as ((y, x, tile), (pos, tile, strength))."""
    match = tas.match

    def events_at(cells: Mapping[Coord, int], pos: Coord) -> list[tuple]:
        x, y = pos
        bonds = () if pos in cells else _bonds_at(match, cells, pos).items()
        return [((y, x, tile), (pos, tile, s)) for tile, s in bonds if s >= TEMPERATURE]

    return events_at


def _recorded_attachments(tas: TileSystem):
    """`_attachments`, each payload extended to an `AttachmentEdge`'s tail by its
    clash: the first side k where the tile disagrees with a neighbour (see
    `clashes`), or None."""
    events_at = _attachments(tas)
    sides = [(t.north, t.east, t.south, t.west) for t in tas.tiles]

    def first_clash(cells: Mapping[Coord, int], pos: Coord, tile: int) -> int | None:
        x, y = pos
        for k, (dx, dy) in enumerate(OFFSETS):
            other = cells.get((x + dx, y + dy))
            if other is not None and clashes(sides[tile][k], sides[other][k ^ 2]):
                return k
        return None

    def recorded(cells: Mapping[Coord, int], pos: Coord) -> list[tuple]:
        return [(k, (*a, first_clash(cells, pos, a[1]))) for k, a in events_at(cells, pos)]

    return recorded


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
        match = self.system.match
        cells = {(0, 0): self.system.seed}
        for pos, tile in self.steps:
            if pos in cells:
                raise OccupiedPositionError(f"position {pos} already holds a tile")
            strength = _bonds_at(match, cells, pos).get(tile, 0)
            if strength < TEMPERATURE:
                raise IllegalAttachmentError(pos, tile, strength)
            cells[pos] = tile
        object.__setattr__(self, "_result", Assembly(cells))

    @classmethod
    def _trusted(cls, system: TileSystem, steps: tuple, cells: dict) -> "AssemblySequence":
        """Wrap `steps`, already known legal, and the cells they leave, unchecked."""
        seq = cls.__new__(cls)
        object.__setattr__(seq, "system", system)
        object.__setattr__(seq, "steps", steps)
        object.__setattr__(seq, "_result", Assembly(cells))
        return seq

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
    neighbour in the child (see `clashes`), or None.  Both are computed
    when the attachment is, once per distinct neighbourhood.  An exploration
    stores its edges as `Edges` columns and builds one only when it is read.
    """

    parent: int
    child: int
    pos: Coord
    tile: int
    strength: int
    clash: int | None = None


class Edges(Sequence):
    """An exploration's edges in order, stored as columns and materialised on read.

    Edge i runs from `parents[i]` to `children[i]`, both state ids, and
    `codes[i]` names what it applies: `table[codes[i]]` is the rest of its
    fields, the payload of its event, one tuple shared by every edge of that
    event.  All three columns are `array('i')`s.  `edges[i]` (negative i
    too), iteration and `reversed` build `edge` tuples, an `AttachmentEdge`
    or `macro.MacroEdge`, and keep none; a slice is an `Edges` over sliced
    columns and the same table.  Hot loops read the columns instead, and test
    a payload once per code.
    """

    def __init__(self, edge: type, parents: array, children: array, codes: array, table: list):
        self.edge = edge
        self.parents = parents
        self.children = children
        self.codes = codes
        self.table = table

    def __len__(self) -> int:
        return len(self.parents)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Edges(self.edge, self.parents[i], self.children[i], self.codes[i], self.table)
        payload = self.table[self.codes[i]]
        return tuple.__new__(self.edge, (self.parents[i], self.children[i], *payload))

    def __iter__(self) -> Iterator[tuple]:
        new, edge, table = tuple.__new__, self.edge, self.table
        columns = zip(self.parents, self.children, self.codes)
        return (new(edge, (p, c, *table[code])) for p, c, code in columns)

    def _payloads(self) -> list:
        return list(map(self.table.__getitem__, self.codes))

    def __eq__(self, other) -> bool:  # defining it leaves the view unhashable, like a list
        if not isinstance(other, Edges):
            return NotImplemented
        return (self.edge, self.parents, self.children, self._payloads()) == (
            other.edge, other.parents, other.children, other._payloads()
        )

    def __repr__(self) -> str:
        return f"<Edges: {len(self)} {self.edge.__name__}>"


class PackedStates(Mapping):
    """An exploration's states by id, each stored as the edge that first reached it.

    Each distinct cell value has a code, its index in `alphabet` (code 0 is
    an empty cell), and each coordinate a slot, its index in `coords`.  The
    start state is kept whole, as `start`: `chr(code)` for each slot, `'\\0'`
    where the slot is empty.  Every other state i is kept as `born[i]`, the
    index in `edges` of its first in-edge (`born[0]` is -1).  That edge's
    code c sets slot `slot_of[c]` to value code `value_of[c]` in its parent,
    which was reached first by an earlier edge, and so on back to the start:
    one step per event.  `states[id]` builds a state as a `view` (`Assembly`
    or `blocks.MacroAssembly`) by that walk and keeps nothing; `cell` walks
    only until it meets the slot it reads.
    """

    def __init__(self, start: str, born: array, edges: Edges, slot_of: array,
                 value_of: array, coords: list[Coord], alphabet: list, view: type):
        self.start = start
        self.born = born
        self.edges = edges
        self.slot_of = slot_of
        self.value_of = value_of
        self.coords = coords
        self.alphabet = alphabet
        self.view = view
        self._slots = {coord: s for s, coord in enumerate(coords)}

    def __len__(self) -> int:
        return len(self.born)

    def __iter__(self):
        return iter(range(len(self.born)))

    def _walk(self, state_id: int) -> Iterator[int]:
        """The codes of the `born` edges from `state_id` back to the start, latest first."""
        born, parents, codes = self.born, self.edges.parents, self.edges.codes
        while state_id:
            e = born[state_id]
            yield codes[e]
            state_id = parents[e]

    def _pairs(self, state_id: int):
        if not (isinstance(state_id, int) and 0 <= state_id < len(self.born)):
            raise KeyError(state_id)
        slot_of, value_of = self.slot_of, self.value_of
        values: dict[int, int] = {}  # slot -> value code; the latest edge at a slot wins
        for code in self._walk(state_id):
            values.setdefault(slot_of[code], value_of[code])
        for s, ch in enumerate(self.start):
            if ch != "\0":
                values.setdefault(s, ord(ch))
        coords, alphabet = self.coords, self.alphabet
        return ((coords[s], alphabet[values[s]]) for s in sorted(values))

    def __getitem__(self, state_id: int) -> Assembly:
        return self.view(dict(self._pairs(state_id)))

    def key(self, state_id: int) -> frozenset:
        """The frozenset key of `self[state_id]`, without building it."""
        return frozenset(self._pairs(state_id))

    def cell(self, state_id: int, coord: Coord):
        """The value at `coord` in state `state_id`, from the latest `born` edge
        back that set its slot: one step at a state's own `born` edge."""
        s = self._slots.get(coord)
        if s is None:
            return None
        for code in self._walk(state_id):
            if self.slot_of[code] == s:
                return self.alphabet[self.value_of[code]]
        start = self.start
        return self.alphabet[ord(start[s])] if s < len(start) else None


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
    """What `explore` or `macro.macro_explore` found within `bound` cells.

    `assemblies` is a `KeyedStates` view of `states`, which hand out an
    `Assembly` or a `blocks.MacroAssembly`; `edges` is an `Edges` view of
    `AttachmentEdge`s or `macro.MacroEdge`s.  Edges, `seed_key` and `cut`
    (the states at the bound whose frontier was dropped) name ids.
    """

    assemblies: Mapping[frozenset, Assembly]
    edges: Edges
    seed_key: int
    cut: tuple[int, ...]
    bound: int

    @property
    def states(self) -> PackedStates:
        return self.assemblies.states

    @property
    def truncated(self) -> bool:  # the producible set continues past the bound
        return bool(self.cut)

    def terminal_keys(self) -> list[int]:
        """Ids of the states with no out-edge that were not cut, fewest cells
        first, then by sorted cells."""
        ends = set(self.states).difference(self.edges.parents, self.cut)
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

    Precondition: the states are graded, and every event adds exactly one to
    its state's grade (at the source level the tile count; at the macro level
    the sum, over non-seed blocks, of received pads plus phase steps).  So
    every child lies in the layer after its parent's, and a layer is deduped
    on its own: only the packed keys of the layer being expanded and the ids
    of the layer being built are held, and an older key is never looked up
    again.  A packed key holds one character per coordinate slot (see
    `PackedStates`), and a child's is its parent's with one character
    replaced.  The start's events come from one `enabled` scan; a new child
    gets its parent's, redone at the touched coordinates.  Events are
    computed once per (slot, neighbourhood), and their outcomes once per
    event, each outcome with a code that every edge applying it stores.  A
    state at the bound is cut if it had events at empty coordinates, which
    are dropped.  A transition that raises stops the exploration.  Returns
    the states, kept as the edges that first reached them, the edges, as
    `Edges` columns, and the cut ids, all in order: no state's key and no
    `edge` tuple is kept.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    coords: list[Coord] = []
    slots: dict[Coord, int] = {}
    alphabet: list = [None]
    value_codes: dict = {None: 0}
    # slot -> (slot, getter of the characters at it and its four neighbours,
    # those characters -> the enabled events there, as front entries)
    nearby: dict[int, tuple] = {}
    # by outcome code: the event's payload, the slot it sets and the value code there
    table: list = []
    slot_of, value_of = array("i"), array("i")

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

    def outcome(s: int, payload, value) -> tuple:
        """The code of `payload` leaving `value` at slot `s`, `value`'s character,
        and the `nearby` entries and slots it touches."""
        hit = tuple(near_of(c) for c in touched(coords[s], value))
        table.append(payload)
        slot_of.append(s)
        value_of.append(intern(value_codes, alphabet, value))
        return len(table) - 1, chr(value_of[-1]), hit, tuple(t[0] for t in hit)

    chars = {
        intern(slots, coords, c): chr(intern(value_codes, alphabet, v)) for c, v in start.items()
    }
    # enabled events, carried from parent to child and dropped once expanded;
    # an entry is [sort key, payload, slot, character there, outcomes once applied]
    fronts = {0: [
        [k, p, intern(slots, coords, c), chr(value_codes[start.get(c)]), None]
        for k, p, c in enabled(start._cells, events_at, touched)
    ]}
    start_key = "".join(chars.get(s, "\0") for s in range(max(chars) + 1))
    parents, children, codes = array("i"), array("i"), array("i")
    add_parent, add_child, add_code = parents.append, children.append, codes.append
    born = array("i", [-1])
    add_born = born.append
    cut: list[int] = []
    layer = {start_key: 0}  # the layer being expanded: its keys, in id order
    while layer:
        ids: dict[str, int] = {}  # the layer being built: key -> id
        for parent, key in enumerate(layer, len(born) - len(layer)):
            front = expand = fronts.pop(parent)
            if len(key) - key.count("\0") >= bound:
                expand = [entry for entry in front if entry[3] != "\0"]
                if len(expand) < len(front):
                    cut.append(parent)
            for entry in expand:
                _, payload, s, here, outs = entry
                if outs is None:
                    before = alphabet[ord(here)]
                    outs = entry[4] = [outcome(s, payload, v) for v in successors(before, payload)]
                head, tail = key[:s].ljust(s, "\0"), key[s + 1 :]
                for code, ch, hit, gone in outs:
                    child_key = head + ch + tail
                    child = ids.get(child_key)
                    if child is None:
                        child = ids[child_key] = len(born)
                        add_born(len(parents))
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
                    add_parent(parent)
                    add_child(child)
                    add_code(code)
        layer = ids
    edges = Edges(edge, parents, children, codes, table)
    states = PackedStates(start_key, born, edges, slot_of, value_of, coords, alphabet, type(start))
    return states, edges, cut


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
        seed_assembly(tas), bound, _recorded_attachments(tas),
        lambda _, attachment: (attachment[1],), _around, AttachmentEdge,
    )
    return ExplorationResult(KeyedStates(states), edges, 0, tuple(cut), bound)


def sample_sequence(tas: TileSystem, rng_seed: int, max_steps: int) -> AssemblySequence:
    """One uniformly random attachment history, reproducible from `rng_seed`."""
    cells, chosen, _ = walk(
        seed_assembly(tas), None, max_steps, random.Random(rng_seed),
        _attachments(tas), lambda _, attachment: attachment[1], _around,
    )
    # every step was enabled when drawn, so it needs no second check
    return AssemblySequence._trusted(tas, tuple(a[:2] for a in chosen), cells)
