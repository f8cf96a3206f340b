"""Block-level state shared by the encoder and the macro engine.

A block is one scaled-up grid cell of the macro simulation.  It moves through
a fixed lifecycle: collecting input pads, input type detected by the probe,
committed to a tile type after the table lookup, and finally complete, at
which point its output pads become visible to the neighbouring blocks.  A
`BlockState` holds only what its transitions read: the probe's input kind is
`detect_kind` of its input pads, and a probe's random bits stay with the run.
`macro_explore` stores a macro state as the edge that first reached it, and
dedupes one layer of states at a time by their packed keys: one character
per coordinate slot, holding the interned code of the block state there (see
`atam.explore_packed` and `atam.PackedStates`); `run_macro`'s `atam.walk`
keeps a plain dict of block states.  `MacroAssembly`, the form both hand out
and the decoder reads, is an `Assembly` of block states, the same immutable
cell map, keyed by its (coordinate, block state) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property

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
    `output_pads` are only the non-null pads the committed tile presents on
    its non-input sides.  Nothing else is kept: a block's next state depends
    only on these fields and the event (with, for a commit, the bits drawn).
    The hash, `input_directions` and `received_strength` are cached on first
    read; they stay out of `repr`, the field list and the pickled state.
    """

    phase: BlockPhase
    input_pads: tuple[Pad, ...] = ()
    committed_tile: int | None = None
    output_pads: tuple[Pad, ...] = ()

    def __hash__(self) -> int:
        # the dataclass hash, computed once: `cs.block_tiles` and the transition
        # memo `cs.transitions` look the same few states up again and again
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash((self.phase, self.input_pads, self.committed_tile, self.output_pads))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # string hashes are seeded per process, so the cached one never travels;
        # the cached facts below follow from the fields, so they stay behind too
        return {k: v for k, v in self.__dict__.items() if k not in _CACHED}

    # computed once per state: the event rule asks every collecting block on
    # every refresh, and a run visits the same few states again and again
    @cached_property
    def input_directions(self) -> frozenset[Direction]:
        return frozenset(p.direction for p in self.input_pads)

    @cached_property
    def received_strength(self) -> int:
        return sum(p.strength for p in self.input_pads)


_CACHED = frozenset({"_hash", "input_directions", "received_strength"})


def seed_block(tas: TileSystem) -> BlockState:
    """The complete block representing the seed tile: all non-null sides output."""
    return BlockState(
        phase=BlockPhase.COMPLETE,
        committed_tile=tas.seed,
        output_pads=tas.seed_tile.pads(),
    )


class MacroAssembly(Assembly):
    """An `Assembly` whose cells hold block states instead of tile indices."""

    __slots__ = ()

    @property
    def blocks(self) -> dict[Coord, BlockState]:
        return self._cells

    def with_block(self, pos: Coord, state: BlockState) -> "MacroAssembly":
        blocks = dict(self._cells)
        old = blocks.get(pos)
        blocks[pos] = state
        key = self._key if old is None else self._key - {(pos, old)}
        return MacroAssembly._trusted(blocks, key | {(pos, state)})
