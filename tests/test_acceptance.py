"""End-to-end acceptance checks, one per workbench guarantee.

Each test records a single PASS/FAIL line with its runtime against a fixed
budget; conftest echoes the lines after the run, past pytest's capture.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from . import conftest

from tileworks.atam import Direction, Pad, explore, sample_sequence
from tileworks.consistency import replay_witness, verify_locally_consistent
from tileworks.encoding import (
    ADDRESS_PAIR_ORDER,
    GlueOrdering,
    address_of,
    compile_system,
    decode_pad,
    encode_pad,
    serialize_compiled,
)
from tileworks.lookup import trace_lookup
from tileworks.macro import decode_assembly, macro_explore, run_macro
from tileworks.svg import render_svg
from tileworks.verifier import simulation_report

from .oracles import ref_direct_lookup, ref_selection_counts, strip_blanks
from .test_corpus import _grow_counter, counter_value
from .test_macro import terminal_macro_keys


@contextmanager
def _criterion(num: int, name: str, budget: float):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok and elapsed < budget else "FAIL"
        line = f"[criterion {num:02d}] {name}: {status} ({elapsed:.2f} s, budget {budget:g} s)"
        print(line)
        conftest.ACCEPTANCE_LINES.append(line)
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f} s, budget {budget:g} s"


def test_criterion_01_pad_codec():
    with _criterion(1, "pad codec round-trip", 1):
        for count in range(1, 9):
            labels = (None, *(f"g{i}" for i in range(count)))
            ordering = GlueOrdering(labels, len(labels).bit_length())
            for glue in labels[1:]:
                for direction in Direction:
                    for strength in (1, 2):
                        pad = Pad(glue, direction, strength)
                        bits = encode_pad(pad, ordering)
                        assert len(bits) == ordering.width + 3
                        assert decode_pad(bits, ordering) == pad


def test_criterion_02_address_canon(systems):
    with _criterion(2, "address canonical order", 1):
        expected = (
            (Direction.E, Direction.N),
            (Direction.S, Direction.E),
            (Direction.W, Direction.S),
            (Direction.N, Direction.W),
            (Direction.N, Direction.S),
            (Direction.E, Direction.W),
        )
        assert ADDRESS_PAIR_ORDER == expected
        for tas in systems.values():
            ordering = GlueOrdering.from_system(tas)
            real = [g for g in ordering.labels if g is not None]
            for d1, d2 in expected:
                for g1 in real:
                    for g2 in real:
                        addr = address_of(
                            (Pad(g2, d2, 1), Pad(g1, d1, 1)), ordering
                        )
                        assert addr.directions == (d1, d2)
                        assert addr.bits == encode_pad(
                            Pad(g1, d1, 1), ordering
                        ) + encode_pad(Pad(g2, d2, 1), ordering)
            zeros = "0" * ordering.pad_bits
            for g in real:
                for d in Direction:
                    addr = address_of((Pad(g, d, 2),), ordering)
                    assert addr.bits.startswith(zeros)
                    assert addr.bits == zeros + encode_pad(Pad(g, d, 2), ordering)


def test_criterion_03_table_structure(compiled):
    with _criterion(3, "table structure", 1):
        for cs in compiled.values():
            symbols = cs.table.symbols
            assert strip_blanks(symbols) == (
                ">" + cs.entries + "<%%>" + cs.entries[::-1] + "<"
            )
            assert all(
                (ch == " ") == (i % 2 == 1) for i, ch in enumerate(symbols)
            )
            assert cs.entries.count("#") == cs.entry_count == 1 + max(cs.addresses)


def test_criterion_04_lookup_oracle_equivalence(compiled):
    with _criterion(4, "lookup oracle equivalence", 10):
        for cs in compiled.values():
            # two passes: a lookup keeps nothing, so the second answers as the first
            for _ in range(2):
                for addr in cs.addresses:
                    for width in range(1, 7):
                        for b in range(2**width):
                            bits = format(b, f"0{width}b")
                            outcome, rec = trace_lookup(cs, addr, bits)
                            n = rec.n
                            assert rec.p == b % n
                            assert outcome.selected_index == n - 1 - (b % n)
                            assert outcome.pads == ref_direct_lookup(
                                cs, addr, outcome.selected_index
                            )


def test_criterion_05_selection_fairness(compiled):
    with _criterion(5, "selection fairness", 1):
        width = 4
        total = 2**width
        for cs in compiled.values():
            for addr, entry in cs.addresses.items():
                counts = ref_selection_counts(cs, addr, width)
                n = len(entry.tiles)
                assert set(counts) == set(range(n))
                assert sum(counts.values()) == total
                for c in counts.values():
                    assert total // n <= c <= -(-total // n)
        nondet = compiled["nondet_elbow"]
        assert ref_selection_counts(nondet, 1948, 4) == {0: 8, 1: 8}


def test_criterion_06_local_consistency_classifier(systems):
    with _criterion(6, "local consistency classifier", 5):
        for name in ("elbow", "nondet_elbow", "counter4", "sierpinski"):
            assert verify_locally_consistent(systems[name], 25).passed
        for name, fragment in (
            ("elbow_bad_sum", "strength 4"),
            ("elbow_mismatch", "mismatch"),
        ):
            verdict = verify_locally_consistent(systems[name], 25)
            assert not verdict.passed
            assert fragment in verdict.witness.describe()
            assert replay_witness(systems[name], verdict.witness)


def test_criterion_07_simulation_conditions(compiled):
    with _criterion(7, "simulation conditions", 60):
        for name, count in (("elbow", 5), ("nondet_elbow", 6)):
            report = simulation_report(compiled[name], 6)
            assert report.passed
            assert not report.source_truncated and not report.macro_truncated
            assert f"{count} assemblies both ways" in report.coverage.detail
        report = simulation_report(compiled["counter4"], 15)
        assert report.passed
        assert report.source_truncated and report.macro_truncated


def test_criterion_08_nondeterminism_fidelity(compiled):
    with _criterion(8, "nondeterminism fidelity", 10):
        cs = compiled["nondet_elbow"]
        result = macro_explore(cs, 6)
        decoded_terminals = {
            decode_assembly(result.states[key], cs).key
            for key in terminal_macro_keys(cs, result)
        }
        source = explore(cs.source, 6)
        source_terminals = {source.states.key(i) for i in source.terminal_keys()}
        assert len(source_terminals) == 2
        assert decoded_terminals == source_terminals


def test_criterion_09_determinism_replay(systems, compiled):
    with _criterion(9, "determinism and replay", 5):
        tas = systems["sierpinski"]
        one = sample_sequence(tas, 7, 40)
        two = sample_sequence(tas, 7, 40)
        assert one.steps == two.steps and one.result() == two.result()
        runs = [run_macro(compiled["elbow"], 11) for _ in range(2)]
        assert runs[0].events == runs[1].events
        assert runs[0].final.key == runs[1].final.key
        artifacts = [
            serialize_compiled(compile_system(systems["elbow"])) for _ in range(2)
        ]
        assert artifacts[0] == artifacts[1]
        asm = one.result()
        assert render_svg(tas, asm) == render_svg(tas, asm)


def test_criterion_10_counter_semantics(systems):
    with _criterion(10, "counter semantics", 5):
        tas = systems["counter3"]
        asm = _grow_counter(tas, 69)
        expected = []
        value = 0
        for _ in range(8):
            expected.append(value)
            value = value + 1  # plain integer increments, no wrap below 8
        assert [counter_value(tas, asm, k) for k in range(8)] == expected


def test_criterion_11_linear_macro_run(systems, compiled):
    with _criterion(11, "linear-time macro run", 5):
        tas = systems["counter4"]
        run = run_macro(compiled["counter4"], 11, max_events=16000)
        assert len(run.events) == 16000 and not run.truncated
        asm = decode_assembly(run.final, compiled["counter4"])
        rows = []
        while (value := counter_value(tas, asm, len(rows))) is not None:
            rows.append(value)
        assert len(rows) > 250
        assert rows == [k % 16 for k in range(len(rows))]
