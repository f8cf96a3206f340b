"""Membership checking for the locally consistent class of tile systems.

A system is locally consistent when, over everything it can produce:

1. every tile other than the seed initially binds with total strength
   exactly 2 (never 3 or 4), and
2. no two abutting tiles ever disagree on a side where either one has a
   positive-strength glue: positive strength on either side forces equal
   labels and equal strengths.

Both conditions are checked over a bounded exploration of the producible
set, once per distinct attachment, on the strength and the clashing side
that the exploration records on each edge when it computes the attachment.
A passing verdict is always relative to the bound and carries a coverage
note.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atam import (
    DIRECTIONS,
    Assembly,
    Coord,
    Direction,
    TileSystem,
    binding_strength,
    clashes,
    explore,
)


@dataclass(frozen=True)
class Witness:
    """A replayable counterexample: enough state to re-run the failed check."""

    kind: str
    assembly: Assembly
    pos: Coord
    tile: int | None = None
    direction: Direction | None = None
    detail: str = ""

    def describe(self) -> str:
        where = f"at {self.pos}"
        if self.direction is not None:
            where += f" toward {self.direction.name}"
        return f"{self.kind} {where}: {self.detail}"


@dataclass(frozen=True)
class Verdict:
    passed: bool
    witness: Witness | None = None
    truncated: bool = False
    note: str = ""

    def __bool__(self) -> bool:
        return self.passed


def _pair_mismatch(tas: TileSystem, asm: Assembly, pos: Coord, d: Direction) -> Witness | None:
    q = d.step(pos)
    other = asm.get(q)
    a = tas.tiles[asm[pos]].side(d)
    b = None if other is None else tas.tiles[other].side(d.opposite)
    if not clashes(a, b):
        return None
    return Witness(
        kind="label-mismatch",
        assembly=asm,
        pos=pos,
        direction=d,
        detail=(
            f"{a.glue}:{a.strength} abuts {b.glue}:{b.strength} "
            f"between {pos} and {q}"
        ),
    )


def replay_witness(tas: TileSystem, witness: Witness) -> bool:
    """Re-run the single check a witness records; True means it still fails."""
    if witness.kind == "strength-sum":
        assert witness.tile is not None
        return binding_strength(tas, witness.assembly, witness.pos, witness.tile) != 2
    if witness.kind == "label-mismatch":
        assert witness.direction is not None
        return _pair_mismatch(tas, witness.assembly, witness.pos, witness.direction) is not None
    raise ValueError(f"unknown witness kind {witness.kind!r}")


def verify_locally_consistent(tas: TileSystem, bound: int) -> Verdict:
    """Check both conditions over every attachment reachable within `bound` tiles.

    Both are checked once per distinct attachment, on what `explore` records
    on each edge when it computes the attachment: condition 1 on the strength,
    condition 2 on the first side where the new tile clashes with a
    neighbour.  The pairs an edge creates are those around its tile, so this
    covers every pair of every producible assembly.
    """
    result = explore(tas, bound)
    note = _note(bound, result.truncated)
    # test each distinct payload, (pos, tile, strength, clash), once by its
    # code; every code is on some edge, so the first edge with a failing code
    # is the first failing edge, and it is the only one built
    edges = result.edges
    failing = {c for c, (_, _, s, clash) in enumerate(edges.table) if s != 2 or clash is not None}
    if not failing:
        return Verdict(True, None, result.truncated, note)
    edge = edges[next(i for i, code in enumerate(edges.codes) if code in failing)]
    if edge.strength != 2:
        witness = Witness(
            kind="strength-sum",
            assembly=result.states[edge.parent],
            pos=edge.pos,
            tile=edge.tile,
            detail=(
                f"tile {tas.tiles[edge.tile].name} attaches at {edge.pos} "
                f"with strength {edge.strength}, not 2"
            ),
        )
    else:
        witness = _pair_mismatch(
            tas, result.states[edge.child], edge.pos, DIRECTIONS[edge.clash]
        )
    return Verdict(False, witness, result.truncated, note)


def _note(bound: int, truncated: bool) -> str:
    state = "exploration truncated at the bound" if truncated else "producible set exhausted"
    return f"checked every attachment up to {bound} tiles; {state}"
