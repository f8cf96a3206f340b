from __future__ import annotations

import dataclasses
import pickle
import random
from collections import deque

import pytest

from tileworks import corpus
from tileworks.atam import Direction, Pad, TileSystem, TileType, WorkbenchError, explore
from tileworks.blocks import BlockPhase, BlockState, InputKind, MacroAssembly, detect_kind
from tileworks.encoding import compile_system
from tileworks.macro import (
    EventKind,
    MacroEdge,
    MacroEvent,
    MacroEventError,
    MacroExplorationResult,
    MacroRun,
    RepresentationError,
    ThreeProbeError,
    _addressable,
    _next_state,
    decode_assembly,
    decode_block,
    macro_explore,
    macro_frontier,
    run_macro,
    seed_macro,
)
from tileworks.verifier import _decode_all


# --- test helpers --------------------------------------------------------
# Single steps and terminal states, which the package itself never needs.


def _apply_event(cs, macro, event, **kwargs):
    """`macro` with `event` applied; `kwargs` go to `_next_state`."""
    state = _next_state(cs, macro.get(event.coord), event, **kwargs)
    return macro.with_block(event.coord, state)


def macro_step(cs, macro, event, rng_seed=None):
    """Apply one event; probes draw their random bits from `rng_seed`."""
    probe_bits = None
    if event.kind is EventKind.PROBE:
        if rng_seed is None:
            raise MacroEventError("a probe event needs an rng seed to draw bits")
        rng = random.Random(rng_seed)
        probe_bits = format(rng.getrandbits(cs.random_width), f"0{cs.random_width}b")
    return _apply_event(cs, macro, event, probe_bits=probe_bits)


def terminal_macro_keys(cs, result):
    """States with no enabled events at all (independent of the block bound)."""
    out = [key for key, macro in result.states.items() if not macro_frontier(cs, macro)]
    out.sort(key=len)
    return out


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
    assert corner.input_kind is InputKind.ADJACENT_PAIR
    assert corner.phase is BlockPhase.COMPLETE


def test_run_macro_reaches_elbow_terminal(compiled):
    cs = compiled["elbow"]
    run = run_macro(cs, rng_seed=0)
    assert not run.truncated
    assert macro_frontier(cs, run.final) == ()
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
    src_terms = set(explore(cs.source, 6).terminal_keys(cs.source))
    assert decoded == src_terms


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
        tiles.add(cs.source.tiles[state.committed_tile].name)
    assert tiles == {"tD", "tDp"}


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
    with pytest.raises(MacroEventError):
        macro_step(cs, partial, MacroEvent(EventKind.PROBE, arrival.coord))  # no seed given


def _three_input_system() -> TileSystem:
    # three pads converge on (1, 1): x from t1 below, x from t2 at the west,
    # and x from t4 arriving from the east arm above
    tiles = (
        TileType.make("seed", e=("a", 2), n=("b", 2)),
        TileType.make("t1", w=("a", 2), n=("x", 1), e=("c", 2)),
        TileType.make("t2", s=("b", 2), e=("x", 1)),
        TileType.make("t3", w=("c", 2), n=("d", 2)),
        TileType.make("t4", s=("d", 2), w=("x", 1)),
    )
    return TileSystem(tiles, seed=0, name="three_probe")


def test_three_pad_arrival_is_diagnosed():
    tas = _three_input_system()
    cs = compile_system(tas, force=True)  # outside the class on purpose
    with pytest.raises(ThreeProbeError):
        macro_explore(cs, 8)


def test_decode_block_integrity(compiled):
    cs = compiled["elbow"]
    run = run_macro(cs, rng_seed=0)
    corner = run.final.get((1, 1))
    assert decode_block(corner, cs) == cs.source.tile_index("tD")
    assert decode_block(BlockState(BlockPhase.INPUTS_PARTIAL), cs) is None
    # a committed block whose outputs disagree with its tile is corrupt
    bad = BlockState(
        BlockPhase.COMPLETE,
        corner.input_pads,
        corner.input_kind,
        None,
        cs.source.tile_index("tR"),  # wrong tile for these pads
        corner.output_pads,
    )
    with pytest.raises(RepresentationError):
        decode_block(bad, cs)
    with pytest.raises(RepresentationError):
        decode_block(
            BlockState(BlockPhase.COMMITTED, committed_tile=None), cs
        )


def test_decode_assembly_reports_block(compiled):
    cs = compiled["elbow"]
    run = run_macro(cs, rng_seed=0)
    corrupted = run.final.with_block(
        (1, 1),
        BlockState(
            BlockPhase.COMPLETE,
            run.final.get((1, 1)).input_pads,
            InputKind.ADJACENT_PAIR,
            None,
            cs.source.tile_index("tU"),
            run.final.get((1, 1)).output_pads,
        ),
    )
    with pytest.raises(RepresentationError) as err:
        decode_assembly(corrupted, cs)
    assert "(1, 1)" in str(err.value)


# --- reference oracle ----------------------------------------------------
# `_scan_frontier` and `_rescan_run` are the frontier scan and the run loop
# that `macro_frontier` and `run_macro` replaced: every step rescans every
# block and rebuilds the whole assembly, so a run is quadratic in its length.
# `_reference_explore` is the exploration loop that `macro_explore` replaced:
# one `_apply_event` per event and, for a commit, per random-bit value.
# They are kept here only as the oracle the fast versions are checked against.


def _scan_frontier(cs, macro):
    events = []
    for coord, state in macro.blocks.items():
        if state.phase is BlockPhase.COMPLETE:
            for pad in state.output_pads:
                target = pad.direction.step(coord)
                received = Pad(pad.glue, pad.direction.opposite, pad.strength)
                neighbour = macro.get(target)
                if neighbour is None:
                    events.append(
                        MacroEvent(EventKind.PAD_ARRIVAL, target, received, coord)
                    )
                elif (
                    neighbour.phase is BlockPhase.INPUTS_PARTIAL
                    and received.direction not in neighbour.input_directions
                ):
                    events.append(
                        MacroEvent(EventKind.PAD_ARRIVAL, target, received, coord)
                    )
        elif state.phase is BlockPhase.INPUTS_PARTIAL:
            if state.received_strength == 2:
                events.append(MacroEvent(EventKind.PROBE, coord))
        elif state.phase is BlockPhase.TYPE_DETECTED:
            if _addressable(cs, state):
                events.append(MacroEvent(EventKind.COMMIT, coord))
        elif state.phase is BlockPhase.COMMITTED:
            events.append(MacroEvent(EventKind.COMPLETION, coord))
    events.sort(key=MacroEvent.sort_key)
    return tuple(events)


def _rescan_run(cs, rng_seed, *, max_events=100_000, bound=None):
    rng = random.Random(rng_seed)
    macro = seed_macro(cs)
    applied = []
    log = []
    truncated = False
    while len(applied) < max_events:
        events = list(_scan_frontier(cs, macro))
        if bound is not None:
            kept = []
            for ev in events:
                if (
                    ev.kind is EventKind.PAD_ARRIVAL
                    and ev.coord not in macro.blocks
                    and len(macro) >= bound
                ):
                    truncated = True
                    continue
                kept.append(ev)
            events = kept
        if not events:
            break
        event = events[rng.randrange(len(events))]
        probe_bits = None
        if event.kind is EventKind.PROBE:
            probe_bits = format(
                rng.getrandbits(cs.random_width), f"0{cs.random_width}b"
            )
        macro = _apply_event(cs, macro, event, probe_bits=probe_bits)
        applied.append(event)
        note = event.describe()
        if event.kind is EventKind.PROBE:
            state = macro.get(event.coord)
            note += f" [{state.input_kind.value}, bits={state.random_bits}]"
        elif event.kind is EventKind.COMMIT:
            state = macro.get(event.coord)
            note += f" -> {cs.source.tiles[state.committed_tile].name}"
        log.append(note)
    return MacroRun(tuple(applied), tuple(log), macro, truncated)


def _reference_explore(cs, bound):
    start = seed_macro(cs)
    states = {start.key: start}
    edges = []
    queue = deque([start.key])
    truncated = False
    bit_values = [format(b, f"0{cs.random_width}b") for b in range(2**cs.random_width)]
    while queue:
        key = queue.popleft()
        macro = states[key]
        for event in macro_frontier(cs, macro):
            if (
                event.kind is EventKind.PAD_ARRIVAL
                and event.coord not in macro.blocks
                and len(macro) >= bound
            ):
                truncated = True
                continue
            if event.kind is EventKind.COMMIT:
                seen_children = set()
                for bits in bit_values:
                    child = _apply_event(
                        cs, macro, event, commit_bits=bits, keep_bits=False
                    )
                    ckey = child.key
                    if ckey in seen_children:
                        continue
                    seen_children.add(ckey)
                    if ckey not in states:
                        states[ckey] = child
                        queue.append(ckey)
                    edges.append(MacroEdge(key, ckey, event))
            else:
                child = _apply_event(cs, macro, event)
                ckey = child.key
                if ckey not in states:
                    states[ckey] = child
                    queue.append(ckey)
                edges.append(MacroEdge(key, ckey, event))
    return MacroExplorationResult(states, tuple(edges), start.key, truncated, bound)


def _five_tile_system() -> TileSystem:
    # passes check-lc, yet (1, 1) is offered three pads: a run that delivers
    # two and then probes is fine, one that delivers all three raises
    tiles = (
        TileType.make("seed", e=("a", 2), n=("b", 2)),
        TileType.make("r1", w=("a", 2), e=("a2", 2), n=("c", 1)),
        TileType.make("r2", w=("a2", 2), n=("g", 2)),
        TileType.make("u1", s=("b", 2), e=("d", 1)),
        TileType.make("q", s=("g", 2), w=("e", 1)),
    )
    return TileSystem(tiles, seed=0, name="five_tile")


DIFFERENTIAL = (*corpus.GENERATORS, "lone_seed", "five_tile")


def _run_outcome(run, cs, seed, bound):
    """What a run produced, or the type and message of what it raised."""
    try:
        result = run(cs, seed, max_events=400, bound=bound)
    except WorkbenchError as exc:
        return type(exc), str(exc)
    return result.events, result.log, result.final.key, result.truncated


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_run_macro_matches_rescanning_oracle(name, systems, lone_seed):
    tas = {**systems, "lone_seed": lone_seed, "five_tile": _five_tile_system()}[name]
    # the two faulty elbows fail check-lc but still compile and run
    cs = compile_system(tas, force=True)
    outcomes = []
    for bound in (None, 1, 6, 12):  # at bound 1 the seed alone fills it
        for seed in range(40):
            got = _run_outcome(run_macro, cs, seed, bound)
            assert got == _run_outcome(_rescan_run, cs, seed, bound), (name, seed, bound)
            outcomes.append(got)
    if name == "five_tile":  # some seeds deliver the third pad, others probe first
        raised = [o[0] for o in outcomes if isinstance(o[0], type)]
        assert set(raised) == {ThreeProbeError}
        assert 0 < len(raised) < len(outcomes)


@pytest.mark.parametrize("name", ("sierpinski", "nondet_elbow"))
def test_macro_frontier_matches_scan_on_every_state(compiled, name):
    cs = compiled[name]
    states = macro_explore(cs, 6).states.values()
    for macro in states:
        assert macro_frontier(cs, macro) == _scan_frontier(cs, macro)


def _explore_outcome(explore, cs, bound):
    """An exploration's state keys, edges and truncation, or what it raised."""
    try:
        result = explore(cs, bound)
    except WorkbenchError as exc:
        return type(exc), str(exc)
    edges = [(e.parent, e.child, e.event) for e in result.edges]
    return list(result.states), edges, result.truncated, result.seed_key


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
def test_macro_explore_matches_reference_loop(name, bound, systems, lone_seed):
    tas = {**systems, "lone_seed": lone_seed, "five_tile": _five_tile_system()}[name]
    cs = compile_system(tas, force=True)
    got = _explore_outcome(macro_explore, cs, bound)
    assert got == _explore_outcome(_reference_explore, cs, bound)
    if name == "five_tile":
        assert got[0] is ThreeProbeError
        return
    result = macro_explore(cs, bound)
    assert all(isinstance(m, MacroAssembly) for m in result.states.values())
    expected = _decode_outcome(
        lambda cs, r: {k: decode_assembly(m, cs).key for k, m in r.states.items()},
        cs,
        result,
    )
    assert _decode_outcome(_decode_all, cs, result) == expected


def test_decode_all_reports_the_first_bad_block(compiled):
    cs = compiled["elbow"]
    result = macro_explore(cs, 6)
    tile = cs.source.tile_index("tR")
    for key, macro in list(result.states.items()):
        for coord, state in macro.blocks.items():
            if state.committed_tile == cs.source.tile_index("tD"):
                bad = dataclasses.replace(state, committed_tile=tile)
                result.states[key] = macro.with_block(coord, bad)
    with pytest.raises(RepresentationError) as want:
        {k: decode_assembly(m, cs) for k, m in result.states.items()}
    with pytest.raises(RepresentationError) as got:
        _decode_all(cs, result)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("block (1, 1): block output pads")


def test_block_state_hash_cache_is_invisible():
    pads = (Pad("a", Direction.S, 1), Pad("b", Direction.W, 1))
    outputs = (Pad("c", Direction.N, 2),)

    def build():
        return BlockState(
            BlockPhase.COMPLETE, tuple(pads), InputKind.ADJACENT_PAIR, None, 3, outputs
        )

    hashed, fresh = build(), build()
    text, names = repr(fresh), [f.name for f in dataclasses.fields(fresh)]
    pickled = pickle.dumps(fresh)
    assert hashed is not fresh
    hash(hashed)
    assert hashed == fresh and hash(hashed) == hash(fresh)
    # the same value the dataclass's own field-tuple hash gives
    assert hash(fresh) == hash(tuple(getattr(fresh, n) for n in names))
    assert repr(hashed) == text == repr(fresh)
    assert [f.name for f in dataclasses.fields(hashed)] == names
    assert names == [
        "phase", "input_pads", "input_kind", "random_bits", "committed_tile", "output_pads"
    ]
    assert pickle.dumps(hashed) == pickle.dumps(fresh) == pickled
    assert pickle.loads(pickle.dumps(hashed)) == fresh
    moved = dataclasses.replace(hashed, committed_tile=4)
    back = dataclasses.replace(moved, committed_tile=3)
    assert moved != hashed and back == hashed and hash(back) == hash(hashed)
    assert {hashed: 1}[fresh] == 1
