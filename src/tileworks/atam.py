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
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, NamedTuple

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


def _bond(match, cells: Mapping[Coord, int], pos: Coord, tile: int) -> int:
    """Total strength `tile` would bind with at `pos`."""
    x, y = pos
    strength = 0
    for k, (dx, dy) in enumerate(OFFSETS):
        other = cells.get((x + dx, y + dy))
        if other is not None:
            strength += match[k][other].get(tile, 0)
    return strength


def binding_strength(tas: TileSystem, asm: Assembly, pos: Coord, tile: int) -> int:
    """Total matching glue strength `tile` would bind with at `pos`."""
    if pos in asm:
        raise OccupiedPositionError(f"position {pos} already holds a tile")
    return _bond(tas.glue_tables.match, asm._cells, pos, tile)


def _frontier_at(match, cells: Mapping[Coord, int], pos: Coord) -> list[tuple[Coord, int]]:
    x, y = pos
    totals: dict[int, int] = {}
    for k, (dx, dy) in enumerate(OFFSETS):
        other = cells.get((x + dx, y + dy))
        if other is not None:
            for tile, s in match[k][other].items():
                totals[tile] = totals.get(tile, 0) + s
    return [(pos, tile) for tile, s in totals.items() if s >= TEMPERATURE]


def frontier(tas: TileSystem, asm: Assembly) -> frozenset[tuple[Coord, int]]:
    """All (position, tile) pairs that may legally attach to `asm`."""
    cells = asm._cells
    empty = {(x + dx, y + dy) for x, y in cells for dx, dy in OFFSETS} - cells.keys()
    return frozenset(pt for q in empty for pt in _frontier_at(tas.glue_tables.match, cells, q))


def _front_key(item: tuple[Coord, int]):
    (x, y), tile = item
    return (y, x, tile)


def _advance_frontier(match, cells: Mapping[Coord, int], parent_front: frozenset, pos: Coord):
    # Strengths only grow when a neighbour appears, so surviving pairs stay
    # valid; only the four positions around the new tile need a fresh look.
    keep = {pt for pt in parent_front if pt[0] != pos}
    x, y = pos
    empty = {(x + dx, y + dy) for dx, dy in OFFSETS} - cells.keys()
    keep.update(pt for q in empty for pt in _frontier_at(match, cells, q))
    return frozenset(keep)


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
    """A legal attachment history starting from the seed assembly."""

    system: TileSystem
    steps: tuple[tuple[Coord, int], ...]
    _assemblies: tuple[Assembly, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        asm = seed_assembly(self.system)
        states = [asm]
        for pos, tile in self.steps:
            asm = attach(self.system, asm, pos, tile)
            states.append(asm)
        object.__setattr__(self, "_assemblies", tuple(states))

    def __len__(self) -> int:
        return len(self.steps)

    def assemblies(self) -> tuple[Assembly, ...]:
        """Seed assembly followed by the state after each step."""
        return self._assemblies

    def result(self) -> Assembly:
        return self._assemblies[-1]


@dataclass(frozen=True, slots=True)
class AttachmentEdge:
    """One legal attachment between two explored assemblies."""

    parent: frozenset
    child: frozenset
    pos: Coord
    tile: int
    strength: int


@dataclass
class ExplorationResult:
    assemblies: dict[frozenset, Assembly]
    edges: tuple[AttachmentEdge, ...]
    seed_key: frozenset
    truncated: bool
    bound: int

    def terminal_keys(self, tas: TileSystem) -> list[frozenset]:
        reachable_parents = {e.parent for e in self.edges}
        out = []
        for key, asm in self.assemblies.items():
            if key in reachable_parents:
                continue
            if len(asm) >= self.bound and not is_terminal(tas, asm):
                continue  # expansion was cut off by the bound, not by the system
            out.append(key)
        return sorted(out, key=lambda k: (len(k), sorted(k)))


def explore(tas: TileSystem, bound: int) -> ExplorationResult:
    """Breadth-first closure of all producible assemblies up to `bound` tiles.

    `truncated` is set when some assembly at the bound still had a nonempty
    frontier, i.e. the producible set continues past what was enumerated.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    match = tas.glue_tables.match
    seed = seed_assembly(tas)
    assemblies: dict[frozenset, Assembly] = {seed.key: seed}
    # frontiers are dropped once expanded, so only the queue's stay alive
    fronts: dict[frozenset, frozenset] = {seed.key: frontier(tas, seed)}
    edges: list[AttachmentEdge] = []
    queue: deque[frozenset] = deque([seed.key])
    truncated = False
    while queue:
        key = queue.popleft()
        cells = assemblies[key]._cells
        front = fronts.pop(key)
        if len(cells) >= bound:
            truncated = truncated or bool(front)
            continue
        for pos, tile in sorted(front, key=_front_key):
            strength = _bond(match, cells, pos, tile)
            ckey = key | {(pos, tile)}
            if ckey not in assemblies:
                child = dict(cells)
                child[pos] = tile
                assemblies[ckey] = Assembly._trusted(child, ckey)
                fronts[ckey] = _advance_frontier(match, child, front, pos)
                queue.append(ckey)
            edges.append(AttachmentEdge(key, ckey, pos, tile, strength))
    return ExplorationResult(assemblies, tuple(edges), seed.key, truncated, bound)


def sample_sequence(tas: TileSystem, rng_seed: int, max_steps: int) -> AssemblySequence:
    """One uniformly random attachment history, reproducible from `rng_seed`."""
    rng = random.Random(rng_seed)
    match = tas.glue_tables.match
    cells = {(0, 0): tas.seed}
    front = frontier(tas, seed_assembly(tas))
    steps: list[tuple[Coord, int]] = []
    while front and len(steps) < max_steps:
        ordered = sorted(front, key=_front_key)
        pos, tile = ordered[rng.randrange(len(ordered))]
        steps.append((pos, tile))
        cells[pos] = tile
        front = _advance_frontier(match, cells, front, pos)
    return AssemblySequence(tas, tuple(steps))
