from __future__ import annotations

import dataclasses
import random
import tracemalloc
from array import array
from typing import NamedTuple

import pytest

from tileworks import atam, corpus
from tileworks.atam import (
    Assembly,
    AssemblySequence,
    DIRECTIONS,
    OFFSETS,
    AttachmentEdge,
    Direction,
    Edges,
    IllegalAttachmentError,
    OccupiedPositionError,
    Pad,
    SidePad,
    TileSystem,
    TileType,
    attach,
    binding_strength,
    explore,
    explore_packed,
    frontier,
    is_terminal,
    sample_sequence,
    seed_assembly,
)
from tileworks.blocks import BlockPhase, BlockState, MacroAssembly, seed_block
from tileworks.consistency import verify_locally_consistent
from tileworks.encoding import GlueOrdering, decode_pad, encode_pad
from tileworks.tasio import format_tas, parse_tas

from .oracles import (
    NoAttachmentRecordError,
    attachment_sides,
    brute_attachments,
    brute_producibles,
    first_clash_side,
    naive_frontier,
    ref_explore,
    ref_sample_sequence,
    ref_terminal_keys,
)
from .test_macro import check_breadth_first_edges, check_cells_walk, check_edges_view


def test_side_pad_rejects_inconsistent_null():
    with pytest.raises(ValueError):
        SidePad(None, 1)
    with pytest.raises(ValueError):
        SidePad("a", 0)
    with pytest.raises(ValueError):
        SidePad("a", 3)


def test_tile_system_validation():
    t = TileType.make("t", n=("a", 2))
    with pytest.raises(ValueError):
        TileSystem((t,), seed=0, temperature=1)
    with pytest.raises(ValueError):
        TileSystem((t,), seed=1)
    with pytest.raises(ValueError):
        TileSystem((t, TileType.make("t")), seed=0)  # duplicate name
    with pytest.raises(ValueError):
        TileSystem((), seed=0)


def test_assembly_value_identity():
    a = Assembly({(0, 0): 0, (1, 0): 1})
    b = Assembly({(1, 0): 1, (0, 0): 0})
    assert a == b and hash(a) == hash(b)
    assert a != Assembly({(0, 0): 0})
    with pytest.raises(ValueError):
        Assembly({})
    with pytest.raises(ValueError):
        MacroAssembly({})
    with pytest.raises(OccupiedPositionError):
        a.with_tile((0, 0), 1)


def test_assemblies_build_their_key_on_first_read(systems):
    pad = Pad("a", Direction.W, 2)
    blocks = (seed_block(systems["elbow"]), BlockState(BlockPhase.INPUTS_PARTIAL, (pad,)),
              BlockState(BlockPhase.TYPE_DETECTED, (pad,)))
    for view, values in ((Assembly, (0, 1, 2)), (MacroAssembly, blocks)):
        cells = {(0, 0): values[0], (1, 0): values[1]}
        one = view({(0, 0): values[0]})
        grow = one.with_tile if view is Assembly else one.with_block
        a, b, c = view(cells), view(dict(reversed(cells.items()))), grow((1, 0), values[1])
        other = view({(0, 0): values[0], (1, 0): values[2]})
        assert len(a) == 2 and a[(1, 0)] == values[1] and (0, 0) in a and type(c) is view
        # nothing so far needed a key
        assert all(m._key is None for m in (a, b, c, one, other))
        eager = frozenset(cells.items())
        assert a == b == c and a != one and a != other
        assert hash(a) == hash(b) == hash(c) == hash(eager)
        assert a.key == b.key == c.key == eager and one.key == frozenset({((0, 0), values[0])})
        assert a._key is a.key  # built once, then kept
        assert {a: 1}[view(cells)] == 1
    # an assembly and a macro assembly with equal cells are equal, as before
    assert Assembly({(0, 0): 0}) == MacroAssembly({(0, 0): 0})
    assert Assembly({(0, 0): 0}) != {(0, 0): 0}


def test_direction_is_its_side_index(systems):
    assert DIRECTIONS == tuple(range(4)) == tuple(Direction)
    assert [d.name for d in DIRECTIONS] == ["N", "E", "S", "W"]
    for d in DIRECTIONS:
        assert d.opposite is DIRECTIONS[d ^ 2] and d.opposite.opposite is d
        assert d.vector == OFFSETS[d] and d.step((3, 5)) == (3 + d.vector[0], 5 + d.vector[1])
    seen = set()
    for tas in systems.values():
        ordering = GlueOrdering.from_system(tas)
        for tile in tas.tiles:
            pads = tile.pads()
            assert list(pads) == sorted(pads, key=Pad.sort_key)
            assert [p.direction for p in pads] == sorted(p.direction for p in pads)
            for pad in pads:
                bits = encode_pad(pad, ordering)
                assert bits[ordering.width : ordering.width + 2] == format(pad.direction, "02b")
                assert decode_pad(bits, ordering).direction is pad.direction
                assert tile.side(pad.direction).glue == pad.glue
                seen.add(pad.direction)
    assert seen == set(DIRECTIONS)
    # `Pad.sort_key` orders by side N, E, S, W before glue
    shuffled = [Pad("a", Direction.W, 1), Pad("z", Direction.N, 2), Pad("b", Direction.S, 1),
                Pad("a", Direction.E, 1)]
    assert [p.direction.name for p in sorted(shuffled, key=Pad.sort_key)] == ["N", "E", "S", "W"]


def test_elbow_binding_strengths(systems):
    tas = systems["elbow"]
    asm = seed_assembly(tas)
    tR, tU, tD = tas.tile_index("tR"), tas.tile_index("tU"), tas.tile_index("tD")
    assert binding_strength(tas, asm, (1, 0), tR) == 2
    assert binding_strength(tas, asm, (0, 1), tU) == 2
    assert binding_strength(tas, asm, (1, 1), tD) == 0
    asm = attach(tas, asm, (1, 0), tR)
    # one strength-1 match is not enough
    assert binding_strength(tas, asm, (1, 1), tD) == 1
    with pytest.raises(IllegalAttachmentError) as err:
        attach(tas, asm, (1, 1), tD)
    assert err.value.strength == 1
    asm = attach(tas, asm, (0, 1), tU)
    assert binding_strength(tas, asm, (1, 1), tD) == 2
    asm = attach(tas, asm, (1, 1), tD)
    assert is_terminal(tas, asm)
    assert len(asm) == 4


def test_mismatching_glue_contributes_nothing():
    # south glue matches label but not strength; label match alone is not a bond
    tiles = (
        TileType.make("seed", n=("g", 1), e=("h", 2)),
        TileType.make("t", s=("g", 2)),
        TileType.make("u", w=("h", 2), s=("g", 2)),
    )
    tas = TileSystem(tiles, seed=0)
    asm = seed_assembly(tas)
    assert binding_strength(tas, asm, (0, 1), 1) == 0
    # mismatches never block: u attaches east on h despite the g/null contact
    asm2 = attach(tas, asm, (1, 0), 2)
    assert asm2[(1, 0)] == 2


def keyed_outcome(result):
    """An exploration's assemblies in order, its edges with their ids replaced
    by the frozenset keys they name, and its truncation."""
    keys = list(result.assemblies)
    edges = [(keys[e.parent], keys[e.child], e.pos, e.tile, e.strength) for e in result.edges]
    return keys, edges, result.truncated


def check_explore_matches_reference(tas, bound):
    """`explore` equals the frozenset oracle exactly, and its id edges keep
    the breadth-first order `verifier._reach` relies on."""
    result = explore(tas, bound)
    assemblies, edges, truncated = ref_explore(tas, bound)
    assert keyed_outcome(result) == (list(assemblies), edges, truncated)
    check_breadth_first_edges(result.states, result.edges, len)
    check_edges_view(result.edges)
    return result


def test_edges_view_reads_its_columns():
    table = [((1, 0), 1, 2, None), ((0, 1), 2, 2, 3), ((1, 1), 3, 2, None)]
    parents, children = array("i", [0, 0, 1, 1]), array("i", [1, 2, 3, 4])
    edges = Edges(AttachmentEdge, parents, children, array("i", [0, 1, 2, 2]), table)
    assert len(edges) == 4
    assert edges[0] == AttachmentEdge(0, 1, (1, 0), 1, 2, None)
    assert edges[-2] == edges[2] == AttachmentEdge(1, 3, (1, 1), 3, 2, None)
    assert edges[-1] == AttachmentEdge(1, 4, (1, 1), 3, 2, None)
    assert edges[-3].clash == 3
    assert list(edges[1:]) == [edges[1], edges[2], edges[3]]
    assert list(edges[::-1]) == list(reversed(edges)) == [edges[3], edges[2], edges[1], edges[0]]
    assert edges[:0] == Edges(AttachmentEdge, array("i"), array("i"), array("i"), [])
    assert edges[1:].table is table
    check_edges_view(edges)
    # views are equal when they build equal edges, however their codes number them
    same = Edges(AttachmentEdge, array("i", parents), array("i", children),
                 array("i", [0, 1, 2, 2]), list(table))
    renumbered = Edges(AttachmentEdge, parents, children,
                       array("i", [2, 0, 1, 1]), table[1:] + table[:1])
    assert edges == same == renumbered and not edges != same
    assert edges != edges[:-1]
    assert edges != Edges(AttachmentEdge, parents, array("i", [1, 2, 3, 5]), edges.codes, table)
    assert edges != Edges(AttachmentEdge, parents, children, array("i", [0, 1, 2, 1]), table)
    assert edges != Edges(tuple, parents, children, edges.codes, table)
    assert edges != list(edges)
    with pytest.raises(TypeError):
        hash(edges)


@pytest.mark.parametrize("name", sorted(corpus.GENERATORS))
def test_cell_walk_matches_keys(systems, name):
    for bound in range(1, 13):
        check_cells_walk(explore(systems[name], bound).states)


def test_gradedness_check_rejects_an_ungraded_rule():
    # one cell that may step a -> b -> c or jump a -> c: the jump adds two to
    # the grade, so the layered store reaches c in two layers and keeps it twice
    def events_at(cells, coord):
        here = cells.get(coord)
        return [((here, k), (k,)) for k in "bc" if here is not None and k > here]

    Step = NamedTuple("Step", [("parent", int), ("child", int), ("value", str)])
    states, edges, _ = explore_packed(
        Assembly({(0, 0): "a"}), 1, events_at, lambda _, payload: payload,
        lambda coord, _: (coord,), Step,
    )
    assert [dict(states.key(i)) for i in states] == [{(0, 0): v} for v in "abcc"]
    with pytest.raises(AssertionError):
        check_breadth_first_edges(states, edges, lambda asm: ord(asm[(0, 0)]) - ord("a"))


def test_explore_edges_view_equals_a_second_exploration(systems):
    tas = systems["sierpinski"]
    a, b = explore(tas, 8).edges, explore(tas, 8).edges
    assert a is not b and a == b
    assert a != explore(tas, 7).edges


def check_edge_clashes(tas, result):
    """Each edge's `clash` is the first side, N, E, S, W, where the attached
    tile clashes with a neighbour in the child, by `naive_clash`, or None."""
    keys = list(result.assemblies)
    for e in result.edges:
        assert e.clash == first_clash_side(tas, dict(keys[e.child]), e.pos), e


@pytest.mark.parametrize("name", sorted(corpus.GENERATORS))
def test_edge_clash_matches_naive_clash(systems, name):
    for bound in range(1, 9):
        check_edge_clashes(systems[name], explore(systems[name], bound))


@pytest.mark.parametrize("name", sorted(corpus.GENERATORS))
def test_explore_matches_reference_exploration(systems, name):
    for bound in range(1, 13):
        check_explore_matches_reference(systems[name], bound)


def check_terminals_match_reference(tas, result):
    """Terminals by the cut states equal terminals by each leaf's frontier,
    and the cut states are exactly the full ones with a nonempty frontier."""
    assert result.terminal_keys() == ref_terminal_keys(tas, result)
    states = result.states.items()
    assert list(result.cut) == [
        i for i, asm in states if len(asm) >= result.bound and frontier(tas, asm)
    ]
    assert result.truncated == bool(result.cut)


@pytest.mark.parametrize("name", sorted(corpus.GENERATORS))
def test_terminal_keys_match_reference(systems, name):
    for bound in range(1, 13):
        check_terminals_match_reference(systems[name], explore(systems[name], bound))


def check_sample_sequence_matches_reference(tas, seeds, lengths):
    for seed in seeds:
        for max_steps in lengths:
            got = sample_sequence(tas, seed, max_steps)
            assert got.steps == ref_sample_sequence(tas, seed, max_steps).steps, (seed, max_steps)
            # built unchecked, it leaves what the checking constructor does
            assert got.result() == AssemblySequence(tas, got.steps).result()


@pytest.mark.parametrize("name", sorted(corpus.GENERATORS))
def test_sample_sequence_matches_sorting_oracle(systems, name):
    check_sample_sequence_matches_reference(systems[name], range(20), (0, 1, 50, 400))


def test_explore_memory_at_bound_25(systems):
    # the frozenset store held about 50 MB here, and one packed key per state
    # with one payload reference per edge 2.0 MiB (2.7 MiB at the peak)
    tracemalloc.start()
    try:
        result = explore(systems["sierpinski"], 25)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(result.assemblies), len(result.edges)) == (9295, 32094)
    # about 0.7 MiB: three int columns per edge and one first in-edge per
    # state; about 1.6 MiB at the peak, two layers of keys and fronts
    assert held < 1.25 * 2**20
    assert peak < 2.25 * 2**20


def test_sierpinski_counts_at_bound_30(systems):
    result = explore(systems["sierpinski"], 30)
    assert (len(result.assemblies), len(result.edges)) == (28628, 109349)


@pytest.mark.parametrize("name,bound", [("elbow", 6), ("nondet_elbow", 6), ("sierpinski", 8)])
def test_explore_matches_brute_force(systems, name, bound):
    tas = systems[name]
    result = explore(tas, bound)
    assert set(result.assemblies) == brute_producibles(tas, bound)
    _, edges, _ = keyed_outcome(result)
    assert len(set(edges)) == len(edges)
    assert set(edges) == brute_attachments(tas, bound)


def test_elbow_exploration_counts(systems):
    tas = systems["elbow"]
    result = explore(tas, 6)
    assert len(result.assemblies) == 5
    assert not result.truncated
    terminals = result.terminal_keys()
    assert len(terminals) == 1
    assert len(result.states[terminals[0]]) == 4


def test_nondet_elbow_exploration_counts(systems):
    tas = systems["nondet_elbow"]
    result = explore(tas, 6)
    assert len(result.assemblies) == 6
    terminals = result.terminal_keys()
    assert len(terminals) == 2
    assert sorted(len(result.states[i]) for i in terminals) == [4, 4]


def test_explore_truncation_flag(systems):
    tas = systems["counter3"]
    assert explore(tas, 10).truncated
    assert not explore(systems["elbow"], 4).truncated  # bound == terminal size
    with pytest.raises(ValueError):
        explore(tas, 0)


def test_frontier_matches_naive_strengths(systems):
    tas = systems["sierpinski"]
    result = explore(tas, 6)
    for asm in result.assemblies.values():
        assert frontier(tas, asm) == naive_frontier(tas, dict(asm.items()))


def test_corner_edges_bind_with_strength_two(systems):
    tas = systems["elbow"]
    result = explore(tas, 6)
    tD = tas.tile_index("tD")
    corner = [e for e in result.edges if e.tile == tD]
    assert corner
    for e in corner:
        assert e.strength == 2


def test_sample_sequence_is_reproducible(systems):
    tas = systems["nondet_elbow"]
    a = sample_sequence(tas, rng_seed=11, max_steps=50)
    b = sample_sequence(tas, rng_seed=11, max_steps=50)
    assert a.steps == b.steps
    assert a.result() == b.result()
    short = sample_sequence(tas, rng_seed=11, max_steps=2)
    assert len(short) == 2
    assert short.steps == a.steps[:2]


def test_sequence_replays_and_reports_sides(systems):
    tas = systems["elbow"]
    seq = AssemblySequence(tas, (((1, 0), 1), ((0, 1), 2), ((1, 1), 3)))
    assert len(seq.assemblies()) == 4
    assert attachment_sides(seq, (1, 1)) == {Direction.W, Direction.S}
    assert attachment_sides(seq, (1, 0)) == {Direction.W}
    with pytest.raises(NoAttachmentRecordError):
        attachment_sides(seq, (5, 5))
    with pytest.raises(IllegalAttachmentError):
        AssemblySequence(tas, (((1, 1), 3),))
    with pytest.raises(OccupiedPositionError):
        AssemblySequence(tas, (((1, 0), 1), ((1, 0), 1)))
    # the chain is rebuilt on demand, each step on top of the one before
    chain = seq.assemblies()
    assert chain[0] == seed_assembly(tas) and chain[-1] == seq.result()
    assert all(chain[i + 1] == attach(tas, chain[i], *seq.steps[i]) for i in range(3))


@pytest.mark.parametrize("name", ("nondet_elbow", "sierpinski"))
def test_sample_sequence_reads_no_clash(systems, name, monkeypatch):
    # the clash side is recorded on exploration edges only; a random run
    # reads bond strengths alone
    tas = systems[name]
    want = [sample_sequence(tas, seed, 300) for seed in range(3)]

    def unread(a, b):
        raise AssertionError("read a clash")

    monkeypatch.setattr(atam, "clashes", unread)
    for seed in range(3):
        got = sample_sequence(tas, seed, 300)
        assert (got.steps, got.result()) == (want[seed].steps, want[seed].result())
    with pytest.raises(AssertionError):
        explore(tas, 4)


def test_sample_sequence_memory_at_4000_steps(systems):
    # only the final assembly is kept: a sequence holding every intermediate
    # assembly peaked at about 640 MB here
    tracemalloc.start()
    try:
        seq = sample_sequence(systems["counter4"], 1, 4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(seq) == 4000 and len(seq.result()) == 4001
    assert peak < 8 * 2**20


def test_counter_growth_is_sequential(systems):
    tas = systems["counter3"]
    asm = seed_assembly(tas)
    for _ in range(40):
        front = frontier(tas, asm)
        assert len(front) == 1
        ((pos, tile),) = front
        asm = attach(tas, asm, pos, tile)
    assert len(asm) == 41


def test_glue_tables_stay_invisible(systems):
    # the per-system tables are derived state: identity, text and answers
    # depend on the tiles alone, in whatever order they are listed
    for name, tas in systems.items():
        rebuilt = TileSystem(tuple(tas.tiles), tas.seed, name=tas.name)
        assert rebuilt == tas and hash(rebuilt) == hash(tas)
        assert repr(rebuilt) == repr(tas) and "match=" not in repr(tas)
        assert dataclasses.replace(tas) == tas
        text = format_tas(tas)
        assert format_tas(parse_tas(text, name=name).system) == text
        order = list(range(len(tas.tiles)))
        random.Random(name).shuffle(order)
        shuffled = dataclasses.replace(
            tas, tiles=tuple(tas.tiles[i] for i in order), seed=order.index(tas.seed)
        )
        assert shuffled != tas
        a, b = explore(tas, 12), explore(shuffled, 12)
        assert (len(a.assemblies), len(a.edges), a.truncated) == (
            len(b.assemblies), len(b.edges), b.truncated
        )
        assert verify_locally_consistent(shuffled, 12).passed == (
            verify_locally_consistent(tas, 12).passed
        )
