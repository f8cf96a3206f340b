"""Block-level state shared by the encoder and the macro engine.

A block is one scaled-up grid cell of the macro simulation.  It moves through
a fixed lifecycle: collecting input pads, input type detected by the probe,
committed to a tile type after the table lookup, and finally complete, at
which point its output pads become visible to the neighbouring blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Mapping

from .atam import Coord, Direction, Pad, TileSystem


class BlockPhase(IntEnum):
    INPUTS_PARTIAL = 1
    TYPE_DETECTED = 2
    COMMITTED = 3
    COMPLETE = 4


class InputKind(Enum):
    SINGLE_STRENGTH_2 = "single-strength-2"
    OPPOSITE_PAIR = "opposite-pair"
    ADJACENT_PAIR = "adjacent-pair"


def detect_kind(pads: tuple[Pad, ...]) -> InputKind:
    if len(pads) == 1:
        if pads[0].strength != 2:
            raise ValueError("a single input pad must have strength 2")
        return InputKind.SINGLE_STRENGTH_2
    if len(pads) == 2 and all(p.strength == 1 for p in pads):
        a, b = pads[0].direction, pads[1].direction
        return InputKind.OPPOSITE_PAIR if a.opposite is b else InputKind.ADJACENT_PAIR
    raise ValueError(f"no input kind for pads {pads!r}")


@dataclass(frozen=True)
class BlockState:
    """One block's lifecycle snapshot.

    `input_pads` hold received pads keyed by the side they arrived on;
    `output_pads` are only the non-null pads the committed tile presents on
    its non-input sides.  `random_bits` is the bit string drawn at probing
    time when the engine retains it.
    """

    phase: BlockPhase
    input_pads: tuple[Pad, ...] = ()
    input_kind: InputKind | None = None
    random_bits: str | None = None
    committed_tile: int | None = None
    output_pads: tuple[Pad, ...] = ()

    def __hash__(self) -> int:
        # the dataclass hash, computed once: macro keys rehash the same few states
        try:
            return self.__dict__["_hash"]
        except KeyError:
            head = (self.phase, self.input_pads, self.input_kind, self.random_bits)
            value = hash(head + (self.committed_tile, self.output_pads))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # string hashes are seeded per process, so the cached one never travels
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def input_directions(self) -> frozenset[Direction]:
        return frozenset(p.direction for p in self.input_pads)

    @property
    def received_strength(self) -> int:
        return sum(p.strength for p in self.input_pads)


def sort_pads(pads) -> tuple[Pad, ...]:
    return tuple(sorted(pads, key=Pad.sort_key))


def seed_block(tas: TileSystem) -> BlockState:
    """The complete block representing the seed tile: all non-null sides output."""
    tile = tas.seed_tile
    outputs = [
        Pad(side.glue, d, side.strength)
        for d, side in tile.sides()
        if side.glue is not None
    ]
    return BlockState(
        phase=BlockPhase.COMPLETE,
        committed_tile=tas.seed,
        output_pads=sort_pads(outputs),
    )


class MacroAssembly:
    """Immutable map from block coordinates to block states."""

    __slots__ = ("_blocks", "_key")

    def __init__(self, blocks: Mapping[Coord, BlockState]):
        self._blocks = dict(blocks)
        self._key = frozenset(self._blocks.items())

    @property
    def key(self) -> frozenset:
        return self._key

    @property
    def blocks(self) -> dict[Coord, BlockState]:
        return self._blocks

    def get(self, pos: Coord) -> BlockState | None:
        return self._blocks.get(pos)

    def __len__(self) -> int:
        return len(self._blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, MacroAssembly) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"MacroAssembly({len(self._blocks)} blocks)"

    def sorted_items(self) -> list[tuple[Coord, BlockState]]:
        return sorted(self._blocks.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def with_block(self, pos: Coord, state: BlockState) -> "MacroAssembly":
        blocks = dict(self._blocks)
        blocks[pos] = state
        return MacroAssembly(blocks)
