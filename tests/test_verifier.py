from __future__ import annotations

import dataclasses
from array import array
from types import SimpleNamespace

import pytest

from tileworks import corpus, verifier
from tileworks.atam import AttachmentEdge, Edges, explore
from tileworks.blocks import BlockPhase, BlockState
from tileworks.consistency import verify_locally_consistent
from tileworks.encoding import AddressEntry, build_entries, build_table, compile_system
from tileworks.macro import EventKind, MacroEdge, decode_block, macro_explore, run_macro
from tileworks.verifier import check_seed_representation, simulation_report

from .oracles import ref_dynamics


@pytest.mark.parametrize("name", ["elbow", "nondet_elbow", "lone_seed"])
def test_report_passes_at_bound_six(compiled, lone_seed, name):
    cs = compile_system(lone_seed) if name == "lone_seed" else compiled[name]
    report = simulation_report(cs, 6)
    assert report.passed
    assert not report.source_truncated and not report.macro_truncated
    text = report.to_text()
    assert "condition 1 (seed block): PASS" in text
    assert "condition 2 (block coverage): PASS" in text
    assert "condition 3 (dynamics): PASS" in text
    assert text.rstrip().endswith("overall: PASS")


def test_counter_report_with_truncation(compiled):
    report = simulation_report(compiled["counter4"], 15)
    assert report.passed
    assert report.source_truncated and report.macro_truncated
    text = report.to_text()
    assert "source exploration truncated: yes" in text
    assert "macro exploration truncated: yes" in text


def test_report_to_text_shape(compiled):
    lines = simulation_report(compiled["elbow"], 6).to_text().splitlines()
    assert lines[0] == "simulation report"
    assert lines[1] == "bound: 6"
    assert lines[-1] == "overall: PASS"


def test_seed_condition_rejects_wrong_tile(systems):
    cs = compile_system(systems["elbow"])
    assert check_seed_representation(cs).passed
    # coherent swap: a run's complete tR block passes integrity but
    # represents the wrong tile
    cs.seed_block = run_macro(cs, 0).final.get((1, 0))
    assert decode_block(cs.seed_block, cs) == cs.source.tile_index("tR")
    report = check_seed_representation(cs)
    assert not report.passed
    assert "tR" in report.detail


def test_seed_condition_rejects_integrity_break(systems):
    cs = compile_system(systems["elbow"])
    # tR's pads on display on a block with no input pads, which is the seed
    tr = cs.source.tile_index("tR")
    cs.seed_block = BlockState(BlockPhase.COMPLETE, output_pads=cs.source.tiles[tr].pads())
    report = check_seed_representation(cs)
    assert not report.passed
    assert "integrity" in report.detail
    assert report.witness is not None


def test_seed_condition_rejects_incomplete_phase(systems):
    cs = compile_system(systems["elbow"])
    cs.seed_block = dataclasses.replace(cs.seed_block, phase=BlockPhase.COMMITTED)
    report = check_seed_representation(cs)
    assert not report.passed
    assert "COMMITTED" in report.detail


def _suppress_tdp(systems):
    """A compiled nondet elbow whose table lost the tDp branch.

    Entry 1948 keeps only tD, consistently in both the address map and the
    regenerated table, so every macro run stays coherent but one producible
    terminal is unreachable.
    """
    cs = compile_system(systems["nondet_elbow"])
    tdp = cs.source.tile_index("tDp")
    entry = cs.addresses[1948]
    assert tdp in entry.tiles
    cs.addresses[1948] = AddressEntry(
        entry.address, entry.pads, tuple(t for t in entry.tiles if t != tdp)
    )
    cs.entries = build_entries(cs.source, cs.glues, cs.addresses)
    cs.table = build_table(cs.entries)
    cs.resolution = 2 * len(cs.table.symbols) + 2 * cs.glues.pad_bits + cs.spacer
    return cs


def test_suppressed_branch_fails_overall_report(systems):
    report = simulation_report(_suppress_tdp(systems), 6)
    assert report.seed.passed
    assert not report.coverage.passed
    assert "never decoded" in report.coverage.witness
    assert "(1, 1)" in report.coverage.witness
    assert not report.dynamics.passed
    assert "never reaches" in report.dynamics.witness
    assert not report.passed
    assert report.to_text().rstrip().endswith("overall: FAIL")


def test_coverage_names_a_decode_the_source_never_produced(compiled):
    # the source explored one tile short of the macro, so the four-tile
    # decodes are extra; the witness is the smallest, first in macro state
    # order, with the block count of the first state decoding to it
    cs = compiled["sierpinski"]
    macro = macro_explore(cs, 4)
    decoded = verifier._decode_all(cs, macro)
    report = verifier._coverage(cs, explore(cs.source, 3), macro, decoded)
    assert report == verifier.ConditionReport(
        "block coverage",
        False,
        "5 decoded assemblies are not source-producible",
        witness=(
            "decoded but not producible: [((0, 0), 0), ((0, 1), 2), ((1, 0), 1), "
            "((2, 0), 1)] (macro state 4 blocks)"
        ),
        rows=("source assemblies: 6, macro states: 97, distinct decoded images: 11",),
    )
    first = decoded.index(frozenset({((0, 0), 0), ((0, 1), 2), ((1, 0), 1), ((2, 0), 1)}))
    # an empty slot sits inside its packed key: the highest slot its blocks
    # hold is not the fourth
    slots = [macro.states.coords.index(coord) for coord in macro.states[first].blocks]
    assert max(slots) + 1 != 4


def _edges(edge, rows):
    """An `Edges` view of `edge`s, from (parent, child, *payload) rows, one
    code per row."""
    parents, children = array("i", [r[0] for r in rows]), array("i", [r[1] for r in rows])
    codes = array("i", range(len(rows)))
    return Edges(edge, parents, children, codes, [tuple(r[2:]) for r in rows])


def test_dynamics_soundness_flags_impossible_jump():
    # white box: feed the checker a macro step whose decode jumps to an
    # assembly the source cannot reach in one attachment
    a = frozenset({((0, 0), 0)})
    b = frozenset({((0, 0), 0), ((1, 0), 1)})
    c = frozenset({((0, 0), 0), ((0, 1), 2)})
    source = SimpleNamespace(
        assemblies={a: None, b: None},
        edges=_edges(AttachmentEdge, [(0, 1, (1, 0), 1, 2, None)]),
    )
    event = SimpleNamespace(kind=EventKind.COMMIT, describe=lambda: "synthetic step")
    macro = SimpleNamespace(edges=_edges(MacroEdge, [(0, 1, event)]))
    decoded = [a, c]
    report = verifier._dynamics(None, source, macro, decoded)
    assert not report.passed
    assert "synthetic step" in report.witness
    assert "no matching source attachment" in report.witness


def _both_dynamics(cs, bound):
    source = explore(cs.source, bound)
    macro = macro_explore(cs, bound)
    decoded = verifier._decode_all(cs, macro)
    return verifier._dynamics(cs, source, macro, decoded), ref_dynamics(source, macro, decoded)


DYNAMICS_CASES = (
    *((name, bound) for name in corpus.GENERATORS for bound in range(3, 7)),
    ("sierpinski", 8),
)


@pytest.mark.parametrize("name, bound", DYNAMICS_CASES)
def test_dynamics_matches_closure_oracle(systems, name, bound):
    # the two faulty elbows fail check-lc but still compile and explore
    got, want = _both_dynamics(compile_system(systems[name], force=True), bound)
    assert got == want
    assert got.passed


@pytest.mark.parametrize("bound", (4, 5, 6))
def test_dynamics_matches_closure_oracle_on_a_lost_branch(systems, bound):
    got, want = _both_dynamics(_suppress_tdp(systems), bound)
    assert got == want
    assert not got.passed


@pytest.mark.parametrize("first", (0, 1))
def test_dynamics_witness_tie_break(first):
    # the seed's two one-tile extensions are both out of the macro's reach:
    # the witness names the one the source explored first
    a = frozenset({((0, 0), 0)})
    b = frozenset({((0, 0), 0), ((1, 0), 1)})
    c = frozenset({((0, 0), 0), ((0, 1), 2)})
    later = (b, c) if first == 0 else (c, b)
    source = SimpleNamespace(
        assemblies=dict.fromkeys((a, *later)),
        edges=_edges(
            AttachmentEdge, [(0, i, *min(k - a), 2, None) for i, k in enumerate(later, 1)]
        ),
    )
    macro = SimpleNamespace(edges=_edges(MacroEdge, []))
    decoded = [a]
    report = verifier._dynamics(None, source, macro, decoded)
    assert report == ref_dynamics(source, macro, decoded)
    assert report.witness.endswith(f"a decode of {sorted(later[0])}")


def test_checks_read_edge_columns_only(systems, compiled, monkeypatch):
    # the verifier and the consistency check zip the id and payload columns:
    # building one tuple per edge there made `simulation_report(sierpinski, 8)`
    # slower than keeping the tuples did
    built = []

    def counting(name):
        read = getattr(Edges, name)

        def counted(self, *args):
            built.append(name)
            return read(self, *args)

        monkeypatch.setattr(Edges, name, counted)

    for name in ("__getitem__", "__iter__"):
        counting(name)
    assert verify_locally_consistent(systems["sierpinski"], 25).passed
    assert simulation_report(compiled["sierpinski"], 8).passed
    assert built == []
    # the counters count: a failing check builds its one failing edge
    assert not verify_locally_consistent(systems["elbow_bad_sum"], 25).passed
    assert built == ["__getitem__"]
    assert list(explore(systems["elbow"], 3).edges)
    assert built[1:] == ["__iter__"]
