"""Differential checks of exploration, the consistency classifier and the macro layer on random systems.

Small tile systems are drawn at random and every answer of `explore`,
`frontier` and `verify_locally_consistent` is compared with the brute-force
oracles, which share no code with the package's glue tables; `explore` is
also compared with the frozenset exploration `ref_explore`, its terminals
with `ref_terminal_keys`, the clash side on each of its edges with
`naive_clash`, `sample_sequence` with the sorting loop
`ref_sample_sequence`, and every verdict with the per-edge reference check
`ref_locally_consistent`.  Every system
that passes the check is compiled: every lookup through the table sweep is
compared with the direct parse of the entries string `ref_direct_lookup`
and with the column-by-column reference sweep, every edge string
`ref_edge_string` builds with the resolution, seeded runs are replayed by
`ref_replay`, `macro_explore` is compared with the per-edge reference loop
`ref_macro_explore`, every entry of the block automaton those runs filled
with its definition by `ref_check_automaton`, the engines with themselves
on a copy that hides the source and its address map, and condition 3 of the
verifier with the closure oracle `ref_dynamics`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tileworks.atam import DIRECTIONS, TileSystem, TileType, WorkbenchError, explore, frontier
from tileworks.consistency import replay_witness, verify_locally_consistent
from tileworks.encoding import CompiledSystem, compile_system
from tileworks.kernels import E_ADDR_RANGE, sweep
from tileworks.lookup import AddressRangeError, trace_lookup
from tileworks.macro import ThreeProbeError, decode_assembly, macro_explore, run_macro
from tileworks.verifier import _decode_all, _dynamics

from .oracles import (
    brute_attachments,
    brute_producibles,
    naive_clash,
    naive_frontier,
    naive_locally_consistent,
    ref_check_automaton,
    ref_direct_lookup,
    ref_dynamics,
    ref_entry_bodies,
    ref_locally_consistent,
    ref_macro_explore,
    ref_parse_entry,
    ref_replay,
    ref_sweep,
)
from .test_atam import (
    check_edge_clashes,
    check_explore_matches_reference,
    check_sample_sequence_matches_reference,
    check_terminals_match_reference,
    keyed_outcome,
)
from .test_encoding import check_edge_strings, check_entries
from .test_macro import _explore_outcome, check_cells_walk, check_table_only

# Systems whose every tile binds everywhere have millions of assemblies at
# bound 6; the bound is lowered until the oracles stay cheap.
MAX_ASSEMBLIES = 300
# macro states outnumber assemblies by far, so the macro layer stops sooner
MACRO_BOUND = 4
# each seeded run stops here, within the bound the consistency check covered
REPLAY_EVENTS = 300

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


def _first_failure(tas: TileSystem, result):
    """The failure the classifier must report: the first edge, in exploration
    order, that binds with strength other than 2 or creates a clash (sides in
    N, E, S, W order), judged by the oracles."""
    keys = list(result.assemblies)
    for e in result.edges:
        if e.strength != 2:
            return ("strength-sum", e.pos, e.tile, None)
        cells = dict(keys[e.child])
        for d in DIRECTIONS:
            if naive_clash(tas, cells, e.pos, d.name):
                return ("label-mismatch", e.pos, None, d)
    return None


@settings(derandomize=True, deadline=None, max_examples=60)
@given(tas=_systems())
def test_random_systems_match_oracles(tas):
    bound = _workable_bound(tas, 6)
    result = check_explore_matches_reference(tas, bound)
    check_cells_walk(result.states)

    assert set(result.assemblies) == brute_producibles(tas, bound)
    _, edges, _ = keyed_outcome(result)
    assert len(set(edges)) == len(edges)
    assert set(edges) == brute_attachments(tas, bound)
    for asm in result.assemblies.values():
        assert frontier(tas, asm) == naive_frontier(tas, dict(asm.items()))
    check_terminals_match_reference(tas, result)
    check_sample_sequence_matches_reference(tas, range(3), (0, 1, 50))

    check_edge_clashes(tas, result)
    check_entries(tas)
    verdict = verify_locally_consistent(tas, bound)
    assert verdict == ref_locally_consistent(tas, bound)
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
    _check_lookups(cs)
    check_edge_strings(cs)
    _check_replays(cs, bound)
    macro_bound = min(bound, MACRO_BOUND)
    got = _explore_outcome(macro_explore, cs, macro_bound)
    assert got == _explore_outcome(ref_macro_explore, cs, macro_bound)
    ref_check_automaton(cs)
    check_table_only(cs, macro_bound, REPLAY_EVENTS)
    if isinstance(got[0], type):
        return
    macro = macro_explore(cs, macro_bound)
    check_cells_walk(macro.states)
    try:
        decoded = _decode_all(cs, macro)
    except WorkbenchError:
        return
    source = explore(tas, macro_bound)
    assert _dynamics(cs, source, macro, decoded) == ref_dynamics(source, macro, decoded)


def _check_replays(cs: CompiledSystem, bound: int) -> None:
    """Seeded runs within the checked bound replay as source attachments, and
    one that stops by itself decodes to a terminal assembly."""
    for seed in range(3):
        try:
            run = run_macro(cs, seed, max_events=REPLAY_EVENTS, bound=bound)
        except ThreeProbeError:  # the open three-pad defect
            continue
        decoded = dict(decode_assembly(run.final, cs).items())
        assert ref_replay(cs.source, run, decoded) is None
        if not run.truncated and len(run.events) < REPLAY_EVENTS:
            assert naive_frontier(cs.source, decoded) == set()


def _check_lookups(cs: CompiledSystem) -> None:
    """Every (address, bits) query: the sweep against the reference sweep, and
    the selected sub-entry against the direct parse."""
    idx = cs.table.index
    bodies = ref_entry_bodies(cs.entries)
    width = cs.random_width
    for addr in cs.addresses:
        n = len(ref_parse_entry("#" + bodies[addr], cs.glues))
        # the reference sweep reads the bits only through p = b mod n
        want = [ref_sweep(cs.table.symbols, addr, p) for p in range(min(n, 2**width))]
        for b in range(2**width):
            assert sweep(idx, addr, b) == want[b % n], (addr, b)
            outcome, rec = trace_lookup(cs, addr, format(b, f"0{width}b"))
            assert rec == want[b % n]
            assert outcome.selected_index == n - 1 - b % n
            assert outcome.pads == ref_direct_lookup(cs, addr, outcome.selected_index)
    out_of_range = cs.entry_count
    assert sweep(idx, out_of_range, 0) == ref_sweep(cs.table.symbols, out_of_range, 0)
    assert sweep(idx, out_of_range, 0).status == E_ADDR_RANGE
    with pytest.raises(AddressRangeError):
        trace_lookup(cs, out_of_range, "0" * width)
    with pytest.raises(AddressRangeError):
        ref_direct_lookup(cs, out_of_range, 0)
