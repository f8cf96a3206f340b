from __future__ import annotations

import dataclasses
import hashlib
import pickle
import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest

from tileworks import atam as atam_module
from tileworks import corpus, kernels
from tileworks import macro as macro_module
from tileworks.atam import (
    Direction,
    Edges,
    ExplorationResult,
    Pad,
    TileSystem,
    TileType,
    WorkbenchError,
    explore,
)
from tileworks.blocks import BlockPhase, BlockState, InputKind, MacroAssembly, detect_kind
from tileworks.cli import main
from tileworks.consistency import verify_locally_consistent
from tileworks.encoding import address_of, compile_system
from tileworks.macro import (
    EventKind,
    MacroEvent,
    MacroEventError,
    RepresentationError,
    ThreeProbeError,
    decode_assembly,
    decode_block,
    macro_explore,
    macro_frontier,
    run_macro,
    seed_macro,
)
from tileworks.tasio import format_tas
from tileworks.verifier import _decode_all, simulation_report

from .conftest import COMPILABLE
from .oracles import (
    apply_event,
    naive_frontier,
    ref_check_automaton,
    ref_macro_explore,
    ref_replay,
    ref_rescan_run,
    ref_scan_frontier,
)


# --- test helpers --------------------------------------------------------
# Single steps and terminal states, which the package itself never needs.


def macro_step(cs, macro, event, rng_seed=None):
    """Apply one event; a commit draws its random bits from `rng_seed`, if given."""
    bits = None
    if event.kind is EventKind.COMMIT and rng_seed is not None:
        rng = random.Random(rng_seed)
        bits = format(rng.getrandbits(cs.random_width), f"0{cs.random_width}b")
    return apply_event(cs, macro, event, bits=bits)


def terminal_macro_keys(cs, result):
    """Ids of the states with no enabled events at all (independent of the
    block bound), fewest blocks first."""
    out = [(len(m), i) for i, m in result.states.items() if not macro_frontier(cs, m)]
    return [i for _, i in sorted(out)]


def test_detect_kind():
    assert detect_kind((Pad("a", Direction.E, 2),)) is InputKind.SINGLE_STRENGTH_2
    assert (
        detect_kind((Pad("a", Direction.N, 1), Pad("b", Direction.S, 1)))
        is InputKind.OPPOSITE_PAIR
    )
    assert (
        detect_kind((Pad("a", Direction.S, 1), Pad("b", Direction.W, 1)))
        is InputKind.ADJACENT_PAIR
    )
    with pytest.raises(ValueError):
        detect_kind((Pad("a", Direction.E, 1),))
    with pytest.raises(ValueError):
        detect_kind(())


def test_seed_macro_frontier(compiled):
    cs = compiled["elbow"]
    macro = seed_macro(cs)
    events = macro_frontier(cs, macro)
    assert [e.kind for e in events] == [EventKind.PAD_ARRIVAL, EventKind.PAD_ARRIVAL]
    assert {e.coord for e in events} == {(1, 0), (0, 1)}
    # received pads name the receiving side
    received = {e.coord: e.pad for e in events}
    assert received[(1, 0)].direction is Direction.W
    assert received[(0, 1)].direction is Direction.S


def test_no_probe_below_strength_two(compiled):
    cs = compiled["nondet_elbow"]
    macro = seed_macro(cs)
    # deliver only tR's path: east arm, then its weak north pad
    for _ in range(5):
        events = [e for e in macro_frontier(cs, macro) if e.coord[1] == 0 or e.coord == (1, 1)]
        if not events:
            break
        macro = macro_step(cs, macro, events[0], rng_seed=1)
    state = macro.get((1, 1))
    assert state is not None
    assert state.phase is BlockPhase.INPUTS_PARTIAL
    assert state.received_strength == 1
    assert all(
        e.coord != (1, 1) or e.kind is EventKind.PAD_ARRIVAL
        for e in macro_frontier(cs, macro)
    )


def test_probe_detects_adjacent_pair(compiled):
    cs = compiled["elbow"]
    run = run_macro(cs, rng_seed=3)
    corner = run.final.get((1, 1))
    assert detect_kind(corner.input_pads) is InputKind.ADJACENT_PAIR
    assert corner.phase is BlockPhase.COMPLETE
    (probe,) = [line for line in run.log if line.startswith("probe at (1, 1)")]
    assert "[adjacent-pair, bits=" in probe


def test_run_macro_reaches_elbow_terminal(compiled):
    cs = compiled["elbow"]
    run = run_macro(cs, rng_seed=0)
    assert not run.truncated
    assert macro_frontier(cs, run.final) == ()
    assert run.final.key == frozenset(run.final.blocks.items())
    decoded = decode_assembly(run.final, cs)
    names = {pos: cs.source.tiles[t].name for pos, t in decoded.items()}
    assert names == {(0, 0): "seed", (1, 0): "tR", (0, 1): "tU", (1, 1): "tD"}
    assert len(run.events) == 13  # 4 arrivals + 3 probes + 3 commits + 3 completions
    assert sum(1 for e in run.events if e.kind is EventKind.PAD_ARRIVAL) == 4
    assert any("adjacent-pair" in line for line in run.log)
    assert any("-> tD" in line for line in run.log)


def test_run_macro_is_reproducible(compiled):
    cs = compiled["nondet_elbow"]
    a = run_macro(cs, rng_seed=9)
    b = run_macro(cs, rng_seed=9)
    assert a.events == b.events
    assert a.log == b.log
    assert a.final == b.final


def test_run_log_is_rendered_once_on_read(compiled):
    cs = compiled["nondet_elbow"]
    run = run_macro(cs, rng_seed=9)
    kinds = [e.kind for e in run.events]
    # besides the events and the final state, the notes need each probe's bits
    assert len(run.bits) == kinds.count(EventKind.PROBE)
    repr(run)
    assert "log" not in vars(run)
    log = run.log
    assert len(log) == len(run.events) and run.log is log
    assert [line for line in log if "bits=" in line] == [
        line for line, kind in zip(log, kinds) if kind is EventKind.PROBE
    ]
    assert run == run_macro(cs, rng_seed=9)


def test_run_macro_bound_truncates(compiled):
    cs = compiled["counter3"]
    run = run_macro(cs, rng_seed=2, bound=8)
    assert run.truncated
    assert len(run.final) <= 8


def test_macro_explore_matches_source(compiled):
    cs = compiled["elbow"]
    result = macro_explore(cs, 6)
    assert not result.truncated
    src = explore(cs.source, 6)
    images = {decode_assembly(m, cs).key for m in result.states.values()}
    assert images == set(src.assemblies)


def test_macro_explore_nondet_terminals(compiled):
    cs = compiled["nondet_elbow"]
    result = macro_explore(cs, 6)
    terms = terminal_macro_keys(cs, result)
    assert len(terms) == 2
    decoded = {decode_assembly(result.states[k], cs).key for k in terms}
    src = explore(cs.source, 6)
    src_terms = {src.states.key(i) for i in src.terminal_keys()}
    assert decoded == src_terms


@pytest.mark.parametrize("name", COMPILABLE)
def test_macro_terminals_match_frontier_scan(compiled, name):
    # the source level's terminal rule, no out-edge and not cut, against a
    # frontier scan of every macro state
    cs = compiled[name]
    for bound in range(4, 9):
        result = macro_explore(cs, bound)
        assert isinstance(result, ExplorationResult)
        assert set(result.terminal_keys()) == set(terminal_macro_keys(cs, result)), bound


def test_macro_explore_scans_only_the_start_state(compiled, monkeypatch):
    scanned = []

    def counting(cells, events_at, touched):
        scanned.append(dict(cells))
        return scan(cells, events_at, touched)

    scan = atam_module.enabled
    monkeypatch.setattr(atam_module, "enabled", counting)
    cs = compiled["sierpinski"]
    macro_explore(cs, 6)
    # the skeleton carries block ids: the one scan sees the seed block's id
    assert scanned == [{(0, 0): cs.automaton.ids[cs.seed_block]}]


def test_commit_branches_split_on_entry(compiled):
    cs = compiled["nondet_elbow"]
    result = macro_explore(cs, 6)
    commit_edges = [
        e for e in result.edges
        if e.event.kind is EventKind.COMMIT and e.event.coord == (1, 1)
    ]
    children = {e.child for e in commit_edges}
    tiles = set()
    for ckey in children:
        state = result.states[ckey].get((1, 1))
        tiles.add(cs.source.tiles[decode_block(state, cs)].name)
    assert tiles == {"tD", "tDp"}


def test_twin_tiles_stay_distinct(systems, tmp_path, capsys):
    # nondet_elbow with tDp replaced by tD2, which has tD's glues: the two
    # corner blocks present equal pads, and only their sub-entries differ
    tas = systems["nondet_elbow"]
    td = tas.tiles[tas.tile_index("tD")]
    tiles = tuple(dataclasses.replace(td, name="tD2") if t.name == "tDp" else t for t in tas.tiles)
    tas = TileSystem(tiles, seed=tas.seed, name="twin_elbow")
    assert verify_locally_consistent(tas, 25).passed
    cs = compile_system(tas)
    result = macro_explore(cs, 6)
    assert len(result.states) == 41
    corners = {decode_block(m.get((1, 1)), cs) for m in result.states.values() if (1, 1) in m}
    assert {tas.tiles[t].name for t in corners - {None}} == {"tD", "tD2"}
    # every bit string lands where the commit keyed by its sub-entry does
    ref_check_automaton(cs)
    assert simulation_report(cs, 6).passed
    path = tmp_path / "twin_elbow.tas"
    path.write_text(format_tas(tas))
    for bits, name in (("0000", "tD2"), ("0001", "tD")):
        assert main(["lookup", str(path), "--addr", "1948", "--bits", bits]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(f"-> {name}")


def test_macro_explore_memory_at_bound_ten(compiled):
    # the frozenset store held 49 MB here, and one tuple per edge about 6.3 MiB
    cs = compiled["sierpinski"]
    tracemalloc.start()
    try:
        result = macro_explore(cs, 10)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(result.states), len(result.edges)) == (14975, 50400)
    # about 1.0 MiB, 1.5 MiB at the peak; one packed key per state and one
    # payload reference per edge held about 2.3 MiB, 3.4 MiB at the peak
    assert held < 1.5 * 2**20
    assert peak < 2.25 * 2**20


def test_illegal_events_raise(compiled):
    cs = compiled["elbow"]
    macro = seed_macro(cs)
    with pytest.raises(MacroEventError):
        macro_step(cs, macro, MacroEvent(EventKind.PROBE, (5, 5)), rng_seed=0)
    with pytest.raises(MacroEventError):
        macro_step(cs, macro, MacroEvent(EventKind.COMMIT, (0, 0)))
    with pytest.raises(MacroEventError):
        macro_step(cs, macro, MacroEvent(EventKind.PROBE, (0, 0)), rng_seed=0)
    with pytest.raises(MacroEventError):
        # the seed block is complete; it cannot receive pads
        macro_step(
            cs,
            macro,
            MacroEvent(
                EventKind.PAD_ARRIVAL, (0, 0), Pad("a", Direction.E, 2), (1, 0)
            ),
        )
    arrival = macro_frontier(cs, macro)[0]
    partial = macro_step(cs, macro, arrival)
    with pytest.raises(MacroEventError):
        macro_step(cs, partial, arrival)  # same side twice
    detected = macro_step(cs, partial, MacroEvent(EventKind.PROBE, arrival.coord))
    assert detected.get(arrival.coord).phase is BlockPhase.TYPE_DETECTED
    with pytest.raises(MacroEventError, match="no random bits"):
        macro_step(cs, detected, MacroEvent(EventKind.COMMIT, arrival.coord))  # no seed given


def test_three_pad_arrival_is_diagnosed():
    # the system passes check-lc (its `corpus.NAMED` verdict) and compiles
    # unforced, yet a third pad arrives at (1, 1): this pins the open
    # three-pad defect of ROADMAP item 5
    cs = compile_system(corpus.three_probe())
    with pytest.raises(ThreeProbeError):
        macro_explore(cs, 8)


def test_decode_block_integrity(compiled):
    cs = compiled["elbow"]
    run = run_macro(cs, rng_seed=0)
    corner = run.final.get((1, 1))
    assert decode_block(corner, cs) == cs.source.tile_index("tD")
    assert decode_block(BlockState(BlockPhase.INPUTS_PARTIAL), cs) is None
    # a committed block whose outputs disagree with its tile is corrupt
    tr_pads = cs.source.tiles[cs.source.tile_index("tR")].pads()
    bad = dataclasses.replace(corner, output_pads=tr_pads)
    with pytest.raises(RepresentationError, match="block output pads"):
        decode_block(bad, cs)
    # so is one whose sub-entry its address's entry does not have
    for sub_entry in (None, 1, -1):
        with pytest.raises(RepresentationError, match="no sub-entry"):
            decode_block(dataclasses.replace(corner, sub_entry=sub_entry), cs)
    # and one whose input pads address no entry at all
    stray = (Pad("b", Direction.W, 2),)
    assert address_of(stray, cs.glues).value not in cs.addresses
    with pytest.raises(RepresentationError, match="no sub-entry"):
        decode_block(BlockState(BlockPhase.COMMITTED, stray, 0), cs)
    # a block with no input pads is the seed, and must show the seed's pads
    with pytest.raises(RepresentationError, match="block output pads"):
        decode_block(BlockState(BlockPhase.COMMITTED), cs)


def test_decode_assembly_reports_block(compiled):
    cs = compiled["elbow"]
    run = run_macro(cs, rng_seed=0)
    # entry 1948 has one sub-entry, tD's
    corrupted = run.final.with_block((1, 1), dataclasses.replace(run.final.get((1, 1)), sub_entry=1))
    assert corrupted.key == frozenset(corrupted.blocks.items())
    with pytest.raises(RepresentationError) as err:
        decode_assembly(corrupted, cs)
    assert "(1, 1)" in str(err.value)


def _swapped_branches(systems):
    """A fresh nondet elbow compile whose address map lists entry 1948's tiles
    in reverse, so each commit there names the other branch's tile while the
    table still hands out the pads of the one it selected."""
    cs = compile_system(systems["nondet_elbow"])
    entry = cs.addresses[1948]
    cs.addresses[1948] = dataclasses.replace(entry, tiles=entry.tiles[::-1])
    return cs


@pytest.mark.parametrize(
    "engine",
    (lambda cs: run_macro(cs, 0), lambda cs: macro_explore(cs, 6)),
    ids=("run_macro", "macro_explore"),
)
def test_commit_checks_the_block_it_builds(engine, systems):
    with pytest.raises(RepresentationError) as err:
        engine(_swapped_branches(systems))
    assert str(err.value).startswith("block (1, 1): block output pads")


def test_decode_block_never_keeps_a_failure(compiled):
    cs = compiled["elbow"]
    corner = run_macro(cs, rng_seed=0).final.get((1, 1))
    bad = dataclasses.replace(corner, output_pads=cs.source.tiles[cs.source.tile_index("tR")].pads())
    auto = cs.automaton
    # a committed state that fails its check gets no id, so it raises again
    for _ in range(2):
        with pytest.raises(RepresentationError, match=r"^block \(1, 1\): "):
            auto.intern(bad, (1, 1))
    assert bad not in auto.ids
    assert auto.tiles[auto.ids[corner]] == decode_block(corner, cs)
    assert "automaton" not in repr(cs)


# the CLI default of 100000 events would cost about 20 s of tier-1 on counter4
REPLAYED = (
    ("counter4", 16000), ("counter3", 8000), ("sierpinski", 6000),
    ("elbow", None), ("nondet_elbow", None),
)


@pytest.mark.parametrize("name, max_events", REPLAYED)
@pytest.mark.parametrize("seed", range(3))
def test_run_replays_as_source_attachments(name, max_events, seed, compiled):
    cs = compiled[name]
    run = run_macro(cs, seed, **({} if max_events is None else {"max_events": max_events}))
    assert run.truncated is False
    decoded = dict(decode_assembly(run.final, cs).items())
    assert ref_replay(cs.source, run, decoded) is None
    if max_events is None:  # a run that stopped by itself decodes to a terminal assembly
        assert macro_frontier(cs, run.final) == ()
        assert naive_frontier(cs.source, decoded) == set()


DIFFERENTIAL = (*corpus.GENERATORS, "lone_seed", "five_tile")


def _counted(function, calls, name):
    """`function`, counting its calls in `calls[name]`."""

    def counting(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return counting


def _run_outcome(run, cs, seed, bound):
    """What a run produced, or the type and message of what it raised."""
    try:
        result = run(cs, seed, max_events=400, bound=bound)
    except WorkbenchError as exc:
        return type(exc), str(exc)
    return tuple(result.events), result.log, result.final.key, result.truncated


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_run_macro_matches_rescanning_oracle(name, monkeypatch):
    tas = corpus.NAMED[name][0]()
    # the two faulty elbows fail check-lc but still compile and run
    cs = compile_system(tas, force=True)
    # a run formats no note: its log is rendered when `_run_outcome` reads it
    notes = Counter()
    for owner, attr in ((MacroEvent, "describe"), (macro_module, "detect_kind")):
        monkeypatch.setattr(owner, attr, _counted(getattr(owner, attr), notes, attr))

    def lean_run(cs, seed, **kwargs):
        notes.clear()
        run = run_macro(cs, seed, **kwargs)
        assert not notes, (seed, kwargs)
        return run

    outcomes = []
    for bound in (None, 1, 6, 12):  # at bound 1 the seed alone fills it
        for seed in range(40):
            got = _run_outcome(lean_run, cs, seed, bound)
            assert got == _run_outcome(ref_rescan_run, cs, seed, bound), (name, seed, bound)
            outcomes.append(got)
    if name == "five_tile":  # some seeds deliver the third pad, others probe first
        raised = [o[0] for o in outcomes if isinstance(o[0], type)]
        assert set(raised) == {ThreeProbeError}
        assert 0 < len(raised) < len(outcomes)


@pytest.mark.parametrize("name", ("elbow", "nondet_elbow", "sierpinski"))
def test_run_macro_truncation_at_every_event_cap(compiled, name):
    # a run is truncated when an arrival was held back as its last step began,
    # not when its last step only just filled the bound
    cs = compiled[name]
    for seed in range(4):
        for cap in range(40):
            got = run_macro(cs, seed, max_events=cap, bound=4)
            want = ref_rescan_run(cs, seed, max_events=cap, bound=4)
            assert (tuple(got.events), got.truncated) == (want.events, want.truncated), (seed, cap)


@pytest.mark.parametrize("name", ("sierpinski", "nondet_elbow"))
def test_macro_frontier_matches_scan_on_every_state(compiled, name):
    cs = compiled[name]
    states = macro_explore(cs, 6).states.values()
    for macro in states:
        assert macro_frontier(cs, macro) == ref_scan_frontier(cs, macro)
        # blocks cut off from the complete blocks that fed them keep their own
        # events; a state whose blocks are all complete leaves an empty map,
        # which has no events and is no macro state
        cut = {c: s for c, s in macro.blocks.items() if s.phase is not BlockPhase.COMPLETE}
        if cut:
            cut = MacroAssembly(cut)
            assert macro_frontier(cs, cut) == ref_scan_frontier(cs, cut)


def check_breadth_first_edges(nodes, edges, grade):
    """The order `verifier._reach` and `atam.explore_packed`'s layered dedupe
    rely on, over nodes in insertion order: every edge runs from a node of
    grade L to one of grade L + 1, the parent comes before its child, and the
    parents never go back along the edge list.  `grade` maps a node's value
    to its grade: `len` at the source level, `macro_grade` at the macro level."""
    index, grades = {}, {}
    for i, (key, value) in enumerate(nodes.items()):
        index[key], grades[key] = i, grade(value)
    last = 0
    for e in edges:
        parent = index[e.parent]
        assert last <= parent < index[e.child]
        assert grades[e.child] == grades[e.parent] + 1, e
        last = parent


def macro_grade(macro):
    """A macro state's grade: received pads plus phase steps, summed over its
    blocks.  Every event adds one; the seed block adds a constant 3."""
    steps = (len(s.input_pads) + s.phase - BlockPhase.INPUTS_PARTIAL for s in macro.blocks.values())
    return sum(steps)


def check_edges_view(edges):
    """Every way of reading an `Edges` view builds the same `edge` tuples:
    iteration, indexing from either end, `reversed` and slices."""
    n = len(edges)
    listed = list(edges)
    assert len(listed) == n == len(edges.children) == len(edges.codes)
    assert all(0 <= code < len(edges.table) for code in edges.codes)
    assert all(type(e) is edges.edge for e in listed)
    assert [edges[i] for i in range(n)] == listed == [edges[i - n] for i in range(n)]
    assert list(reversed(edges)) == listed[::-1]
    for cut in (slice(None), slice(1, -1), slice(None, None, -2), slice(n, None)):
        assert list(edges[cut]) == listed[cut]
        assert type(edges[cut]) is Edges
    for outside in (n, -n - 1):
        with pytest.raises(IndexError):
            edges[outside]


def check_cells_walk(states):
    """`states.cell` walks back to the value `states.key` holds, for every
    state and every coordinate, None where the state has no cell."""
    outside = (min(x for x, _ in states.coords) - 1, 0)
    for i in states:
        cells = dict(states.key(i))
        for coord in (*states.coords, outside):
            assert states.cell(i, coord) == cells.get(coord), (i, coord)


def _explore_outcome(explore, cs, bound):
    """An exploration's states, edges and truncation, or what it raised.

    States are named by the frozenset keys of their materialised
    `MacroAssembly`s, whatever the exploration keys them by.
    """
    try:
        result = explore(cs, bound)
    except WorkbenchError as exc:
        return type(exc), str(exc)
    name = {}
    for key, macro in result.states.items():
        assert macro.key == frozenset(macro.blocks.items())
        name[key] = macro.key
    assert len(set(name.values())) == len(name)
    check_breadth_first_edges(result.states, result.edges, macro_grade)
    if isinstance(result.edges, Edges):  # the reference loop keeps a tuple
        check_edges_view(result.edges)
    edges = [(name[e.parent], name[e.child], e.event) for e in result.edges]
    return list(name.values()), edges, result.truncated, name[result.seed_key]


def _decode_outcome(decode_all, cs, result):
    try:
        return decode_all(cs, result)
    except WorkbenchError as exc:
        return type(exc), str(exc)


EXPLORED = (
    *((name, 6) for name in DIFFERENTIAL),
    ("sierpinski", 8),
)


@pytest.mark.parametrize("name, bound", EXPLORED)
def test_macro_explore_matches_reference_loop(name, bound):
    tas = corpus.NAMED[name][0]()
    cs = compile_system(tas, force=True)
    got = _explore_outcome(macro_explore, cs, bound)
    assert got == _explore_outcome(ref_macro_explore, cs, bound)
    if name == "five_tile":
        assert got[0] is ThreeProbeError
        return
    result = macro_explore(cs, bound)
    assert list(result.states) == list(range(len(result.states)))
    check_cells_walk(result.states)
    assert all(isinstance(m, MacroAssembly) for m in result.states.values())
    # the edge walk against a whole decode of every materialised state
    expected = _decode_outcome(
        lambda cs, r: [decode_assembly(m, cs).key for m in r.states.values()], cs, result
    )
    got = _decode_outcome(_decode_all, cs, result)
    assert got == expected
    if isinstance(got, list):  # equal images are one object
        assert len({id(image) for image in got}) == len(set(got))


def test_decode_all_reports_the_first_bad_block(compiled):
    cs = compiled["elbow"]
    result = macro_explore(cs, 6)
    tr_pads = cs.source.tiles[cs.source.tile_index("tR")].pads()
    # corrupt the interned committed tD block, which every state holding it shares
    alphabet = result.states.alphabet
    (code,) = [
        i for i, state in enumerate(alphabet)
        if state is not None
        and state.phase is BlockPhase.COMMITTED
        and decode_block(state, cs) == cs.source.tile_index("tD")
    ]
    alphabet[code] = dataclasses.replace(alphabet[code], output_pads=tr_pads)
    with pytest.raises(RepresentationError) as want:
        [decode_assembly(m, cs) for m in result.states.values()]
    with pytest.raises(RepresentationError) as got:
        _decode_all(cs, result)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("block (1, 1): block output pads")


# --- the block automaton ------------------------------------------------
# `cs.automaton` outlives every call that fills it, so a later call on the
# same compiled system must see exactly what a fresh one would.


def test_failed_transition_is_not_kept():
    cs = compile_system(corpus.five_tile())
    raised = []
    for _ in range(2):
        with pytest.raises(ThreeProbeError) as err:
            macro_explore(cs, 6)
        raised.append(str(err.value))
    assert raised[0] == raised[1]


def test_run_looks_each_address_and_bits_up_once(systems, monkeypatch):
    cs = compile_system(systems["counter4"])
    calls = Counter()

    def counting(cs, addr, bits):
        calls[addr, bits] += 1
        return lookup(cs, addr, bits)

    lookup = macro_module.trace_lookup
    monkeypatch.setattr(macro_module, "trace_lookup", counting)
    for seed in range(2):
        run = run_macro(cs, seed, max_events=16000)
        assert len(run.events) == 16000
    assert calls and max(calls.values()) == 1


def _packed_outcome(result):
    states = result.states
    stored = (states.start, states.born, states.slot_of, states.value_of, states.coords)
    return [states.key(i) for i in states], stored, result.edges, result.truncated


@pytest.mark.parametrize("name", ("nondet_elbow", "counter3", "sierpinski"))
def test_explore_after_run_matches_fresh_compile(name, systems):
    used = compile_system(systems[name])
    for seed in range(3):
        run_macro(used, seed, max_events=2000)
    auto = used.automaton
    assert auto.steps
    got = macro_explore(used, 6)
    assert _packed_outcome(got) == _packed_outcome(macro_explore(compile_system(systems[name]), 6))
    # equal outcomes are one object, whichever call stored them
    assert len(set(auto.states)) == len(auto.states)


class _Untouchable:
    """A compiled system's field that fails the test on any use."""

    def __init__(self, name):
        self.name = name

    def _fail(self, *args):
        raise AssertionError(f"the block program used cs.{self.name}")

    __getattr__ = __contains__ = __getitem__ = __iter__ = __len__ = __bool__ = _fail


def _engine_outcome(cs, bound, events):
    """`run_macro`'s events, final state and truncation at seeds 0-2, and
    `_explore_outcome` of `macro_explore` at `bound`, or what each raised."""
    outcomes = []
    for seed in range(3):
        try:
            run = run_macro(cs, seed, max_events=events)
        except WorkbenchError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((run.events, run.final.key, run.truncated))
    return [*outcomes, _explore_outcome(macro_explore, cs, bound)]


def check_table_only(cs, bound, events=2000):
    """The engines run on the table alone: on a copy of `cs` whose `source`
    and `addresses` fail on any use, with `decode_block`, their one reader,
    stubbed, they give what they give on `cs`.  Returns False, checking
    nothing, where they raise `RepresentationError` on `cs`, since only
    decoding raises it."""
    want = _engine_outcome(cs, bound, events)
    if any(outcome[0] is RepresentationError for outcome in want):
        return False
    blind = dataclasses.replace(
        cs, source=_Untouchable("source"), addresses=_Untouchable("addresses")
    )
    with mock.patch.object(macro_module, "decode_block", lambda state, cs: None):
        assert _engine_outcome(blind, bound, events) == want
    return True


@pytest.mark.parametrize("name", COMPILABLE)
def test_blocks_run_on_the_table_alone(compiled, name):
    assert check_table_only(compiled[name], 6)


def test_block_state_is_a_plain_frozen_dataclass():
    pads = (Pad("a", Direction.S, 1), Pad("b", Direction.W, 1))
    outputs = (Pad("c", Direction.N, 2),)

    def build():
        return BlockState(BlockPhase.COMPLETE, tuple(pads), 3, outputs)

    hashed, fresh = build(), build()
    text, names = repr(fresh), [f.name for f in dataclasses.fields(fresh)]
    pickled = pickle.dumps(fresh)
    assert hashed is not fresh
    hash(hashed)
    assert vars(hashed) == vars(fresh) == dict(zip(names, (BlockPhase.COMPLETE, pads, 3, outputs)))
    assert hashed.input_directions == {Direction.S, Direction.W}
    assert hashed.received_strength == 2
    assert hashed == fresh and hash(hashed) == hash(fresh)
    # the dataclass's own field-tuple hash
    assert hash(fresh) == hash(tuple(getattr(fresh, n) for n in names))
    assert repr(hashed) == text == repr(fresh)
    assert [f.name for f in dataclasses.fields(hashed)] == names
    assert names == ["phase", "input_pads", "sub_entry", "output_pads"]
    assert pickle.dumps(hashed) == pickle.dumps(fresh) == pickled
    assert pickle.loads(pickle.dumps(hashed)) == fresh
    moved = dataclasses.replace(hashed, sub_entry=4)
    back = dataclasses.replace(moved, sub_entry=3)
    assert moved != hashed and back == hashed and hash(back) == hash(hashed)
    assert {hashed: 1}[fresh] == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        hashed.phase = BlockPhase.COMMITTED


def test_pads_and_events_are_slotted_frozen_and_pickle():
    pad = Pad("a", Direction.S, 2)
    arrival = MacroEvent(EventKind.PAD_ARRIVAL, (1, 2), pad, (1, 3))
    state = BlockState(BlockPhase.TYPE_DETECTED, (pad,))
    for record in (pad, arrival, MacroEvent(EventKind.COMMIT, (0, 1))):
        assert not hasattr(record, "__dict__")
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, getattr(record, field.name))
        # a new name has no slot; the frozen `__setattr__` of a slotted class
        # raises TypeError for it on some Python versions
        with pytest.raises((AttributeError, TypeError)):
            record.note = "x"
    for value in (pad, arrival, MacroEvent(EventKind.COMMIT, (0, 1)), state):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and hash(back) == hash(value) and back is not value


def test_type_detected_id_commits_iff_its_address_has_an_entry(compiled):
    cs = compile_system(compiled["counter3"].source)
    run_macro(cs, 0, max_events=3000)
    auto = cs.automaton
    detected = [i for i, state in enumerate(auto.states)
                if state is not None and state.phase is BlockPhase.TYPE_DETECTED]
    assert detected
    for i in detected:
        state = auto.states[i]
        address = address_of(state.input_pads, cs.glues).value
        has_entry = address in cs.addresses
        # the table agrees: the sweep finds the entry non-bare, whatever the bits
        last = 2**cs.random_width - 1
        non_bare = kernels.sweep(cs.table.index, address, last).status == kernels.OK
        assert (auto.own[i] == EventKind.COMMIT) == has_entry == non_bare


@pytest.mark.parametrize("name", ("elbow", "nondet_elbow", "counter3", "counter4", "sierpinski"))
def test_filled_automaton_matches_its_definition(name, systems):
    cs = compile_system(systems[name])
    macro_explore(cs, 6)
    for seed in range(3):
        run_macro(cs, seed, max_events=3000)
    # every id but the empty block and the seed's is some step's outcome
    auto = cs.automaton
    assert set(auto.steps.values()) == set(range(2, len(auto.states))) and len(auto.states) > 5
    ref_check_automaton(cs)


def test_sierpinski_macro_counts_at_bound_12(systems):
    # the README quotes these counts, and the block automaton's size after
    # the exploration: its block states and steps, from a fresh compile
    cs = compile_system(systems["sierpinski"])
    result = macro_explore(cs, 12)
    assert (len(result.states), len(result.edges)) == (63297, 245479)
    assert (len(cs.automaton.ids), len(cs.automaton.steps)) == (29, 32)


def test_counter4_run_automaton_size(systems):
    # the README quotes the automaton's size after this run
    cs = compile_system(systems["counter4"])
    run_macro(cs, 0, max_events=16000)
    assert (len(cs.automaton.ids), len(cs.automaton.steps)) == (70, 70)


# the sha256 of a run's events as `_event_fields` tuples, one repr a line,
# pinned so that building events only when read changes no event
EVENT_DIGESTS = (
    ("counter3", 0, 3000, "94c1bff24555187bacfd2e5a07d5bbaec3814e14de330a6b976bc14e62922d3b"),
    ("nondet_elbow", 1, None, "47096bd3308a273f0c10fc8c1e2b05dcac80d35b04f9139bfb42cb25f75a31cc"),
    ("sierpinski", 2, 2000, "0b3a6c77edf116253d9c9fe3fceda77a4f953277c64e522c9c8e65fb12a722ad"),
)


def _event_fields(event) -> tuple:
    """An event as plain values, free of any enum's repr: kind name,
    coordinate, pad glue, direction name and strength, source."""
    pad = event.pad
    if pad is None:
        return (event.kind.name, event.coord, None, None, None, event.source)
    return (event.kind.name, event.coord, pad.glue, pad.direction.name, pad.strength, event.source)


@pytest.mark.parametrize("name, seed, max_events, digest", EVENT_DIGESTS, ids=lambda v: str(v)[:12])
def test_run_builds_events_only_when_read(systems, monkeypatch, name, seed, max_events, digest):
    cs = compile_system(systems[name])
    built = Counter()
    monkeypatch.setattr(macro_module, "MacroEvent", _counted(MacroEvent, built, "event"))
    kwargs = {} if max_events is None else {"max_events": max_events}
    # a step the automaton has not taken builds its event, once, for `_next_state`
    run_macro(cs, seed, **kwargs)
    assert built["event"] == len(cs.automaton.steps)
    built.clear()
    run = run_macro(cs, seed, **kwargs)
    assert len(run.events) == (max_events or 14) and not built
    text = "\n".join(repr(_event_fields(event)) for event in run.events)
    assert built["event"] == len(run.events)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert run.events[1:3] == type(run.events)(run.events.auto, run.events.chosen[1:3])
    assert list(run.events[1:3]) == list(run.events)[1:3]


def test_a_cold_run_builds_each_tiles_pads_at_most_once(systems, monkeypatch):
    cs = compile_system(systems["counter4"])
    built = Counter()
    monkeypatch.setattr(TileType, "pads", _counted(TileType.pads, built, "pads"))
    run = run_macro(cs, 0, max_events=1500)
    decoded = decode_assembly(run.final, cs)
    # every new block state is decoded as it is interned, each against its tile's pads
    assert len(cs.automaton.states) > len(cs.source.tiles) and len(decoded) > 1
    assert 0 < built["pads"] <= len(cs.source.tiles)


def test_commit_branches_do_not_grow_with_the_bit_width(systems):
    # a commit branches over the sub-entries its bits can select, so the
    # exploration and the automaton are the same whatever the width
    outcomes = []
    for width in (4, 8, 12):
        cs = compile_system(systems["sierpinski"], random_width=width)
        result = macro_explore(cs, 8)
        states = result.states
        edges = [(e.parent, e.child, e.event) for e in result.edges]
        outcomes.append(([states.key(i) for i in states], edges, len(cs.automaton.steps)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_a_warm_run_and_its_decode_hash_no_block_state(systems, monkeypatch):
    cs = compile_system(systems["counter3"])
    run_macro(cs, 0, max_events=2000)
    hashed = Counter()
    monkeypatch.setattr(BlockState, "__hash__", _counted(BlockState.__hash__, hashed, "hash"))
    run = run_macro(cs, 0, max_events=2000)
    decoded = decode_assembly(run.final, cs)
    # only the seed block is looked up by value, as the run starts
    assert hashed["hash"] == 1
    assert len(decoded) == sum(s.phase >= BlockPhase.COMMITTED for s in run.final.blocks.values())
    # the final state's key is built when read, and is the eager one
    eager = frozenset(run.final.blocks.items())
    assert run.final.key == eager and hash(run.final) == hash(eager)
    same = run.final.with_block((0, 0), cs.seed_block)
    assert run.final == MacroAssembly(dict(run.final.blocks)) == same
