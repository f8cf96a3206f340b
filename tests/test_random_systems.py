"""Differential checks of exploration, the consistency classifier and the macro layer on random systems.

Small tile systems are drawn at random and every answer of `explore`,
`frontier` and `verify_locally_consistent` is compared with the brute-force
oracles, which share no code with the package's glue tables.  Every system
that passes the check is compiled, and `macro_explore` is compared with the
per-edge reference loop of `tests/test_macro.py`.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tileworks.atam import DIRECTIONS, TileSystem, TileType, explore, frontier
from tileworks.consistency import replay_witness, verify_locally_consistent
from tileworks.encoding import compile_system
from tileworks.macro import macro_explore

from .oracles import (
    brute_attachments,
    brute_producibles,
    naive_clash,
    naive_frontier,
    naive_locally_consistent,
    naive_strength,
)
from .test_macro import _explore_outcome, _reference_explore

# Systems whose every tile binds everywhere have millions of assemblies at
# bound 6; the bound is lowered until the oracles stay cheap.
MAX_ASSEMBLIES = 300
# macro states outnumber assemblies by far, so the macro layer stops sooner
MACRO_BOUND = 4

# strength 2 first: hypothesis favours early choices, and bonds make growth
_side = st.tuples(st.sampled_from("abc"), st.sampled_from((2, 1, 0))).map(
    lambda pad: pad if pad[1] else None
)


@st.composite
def _systems(draw) -> TileSystem:
    """2 to 5 tiles, the seed first.

    Each later tile copies two glues of earlier tiles onto its facing sides,
    so that most systems grow, some with two bonds at once.
    """
    count = draw(st.integers(2, 5))
    sides = [list(draw(st.tuples(_side, _side, _side, _side))) for _ in range(count)]
    for i in range(1, count):
        for _ in range(2):
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, 3))
            if sides[j][k] is not None:
                sides[i][k ^ 2] = sides[j][k]
    tiles = tuple(TileType.make(f"t{i}", *pads) for i, pads in enumerate(sides))
    return TileSystem(tiles, seed=0)


def _workable_bound(tas: TileSystem, most: int) -> int:
    bound = 1
    while bound < most and len(explore(tas, bound + 1).assemblies) <= MAX_ASSEMBLIES:
        bound += 1
    return bound


def _naive_sides(tas: TileSystem, cells: dict, pos, tile) -> set:
    """Directions on which `tile` at `pos` bonds, one neighbour at a time."""
    out = set()
    for d in DIRECTIONS:
        q = d.step(pos)
        if q in cells and naive_strength(tas, {q: cells[q]}, pos, tile) > 0:
            out.add(d)
    return out


def _first_failure(tas: TileSystem, result):
    """The failure the classifier must report: the first edge, in exploration
    order, that binds with strength other than 2 or creates a clash (sides in
    N, E, S, W order), judged by the oracles."""
    for e in result.edges:
        if e.strength != 2:
            return ("strength-sum", e.pos, e.tile, None)
        cells = dict(e.child)
        for d in DIRECTIONS:
            if naive_clash(tas, cells, e.pos, d.name):
                return ("label-mismatch", e.pos, None, d)
    return None


@settings(derandomize=True, deadline=None, max_examples=60)
@given(tas=_systems())
def test_random_systems_match_oracles(tas):
    bound = _workable_bound(tas, 6)
    result = explore(tas, bound)

    assert set(result.assemblies) == brute_producibles(tas, bound)
    edges = {(e.parent, e.child, e.pos, e.tile, e.strength) for e in result.edges}
    assert len(edges) == len(result.edges)
    assert edges == brute_attachments(tas, bound)
    for e in result.edges:
        assert e.bound_sides == _naive_sides(tas, dict(e.parent), e.pos, e.tile)
    for asm in result.assemblies.values():
        assert frontier(tas, asm) == naive_frontier(tas, dict(asm.items()))

    verdict = verify_locally_consistent(tas, bound)
    assert verdict.passed == naive_locally_consistent(tas, bound)
    witness = verdict.witness
    assert _first_failure(tas, result) == (
        None if verdict.passed
        else (witness.kind, witness.pos, witness.tile, witness.direction)
    )
    if not verdict.passed:
        assert replay_witness(tas, witness)
        return

    cs = compile_system(tas, lc_bound=bound)
    macro_bound = min(bound, MACRO_BOUND)
    got = _explore_outcome(macro_explore, cs, macro_bound)
    assert got == _explore_outcome(_reference_explore, cs, macro_bound)

