"""Block-level state shared by the encoder and the macro engine.

A block is one scaled-up grid cell of the macro simulation.  It moves through
a fixed lifecycle: collecting input pads, input type detected by the probe,
committed to a table sub-entry after the lookup, and finally complete, at
which point its output pads become visible to the neighbouring blocks.  A
`BlockState` holds only what its transitions read: the probe's input kind is
`detect_kind` of its input pads, and a probe's random bits stay with the run.
The engines carry block states as the small ids of the compiled system's
`macro.BlockAutomaton`, which also keeps what each state enables and offers.
`MacroAssembly`, the form both engines hand out and the decoder reads, only
names an `Assembly` whose cells are block states: the same immutable cell
map, keyed by its (coordinate, block state) pairs on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

from .atam import Assembly, Coord, Direction, Pad, TileSystem


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
    `sub_entry` is the index the commit selected in the entry they address,
    None before it and in the seed block; `output_pads` are that sub-entry's
    pads, the non-null pads of the non-input sides.  Nothing else is kept: a
    block's next state depends only on these fields and the event (with, for
    a commit, the bits drawn); its tile is `macro.decode_block`'s answer.
    """

    phase: BlockPhase
    input_pads: tuple[Pad, ...] = ()
    sub_entry: int | None = None
    output_pads: tuple[Pad, ...] = ()

    @property
    def input_directions(self) -> frozenset[Direction]:
        return frozenset(p.direction for p in self.input_pads)

    @property
    def received_strength(self) -> int:
        return sum(p.strength for p in self.input_pads)


def seed_block(tas: TileSystem) -> BlockState:
    """The complete block representing the seed tile: all non-null sides output."""
    return BlockState(BlockPhase.COMPLETE, output_pads=tas.seed_tile.pads())


class MacroAssembly(Assembly):
    """An `Assembly` whose cells hold block states instead of tile indices."""

    __slots__ = ()

    @property
    def blocks(self) -> dict[Coord, BlockState]:
        return self._cells

    def with_block(self, pos: Coord, state: BlockState) -> "MacroAssembly":
        return MacroAssembly({**self._cells, pos: state})
