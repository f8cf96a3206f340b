from __future__ import annotations

import pytest

from tileworks import consistency, corpus
from tileworks.atam import (
    Assembly,
    AssemblySequence,
    Direction,
    PackedStates,
    TileSystem,
    binding_strength,
    explore,
    sample_sequence,
)
from tileworks.consistency import (
    Verdict,
    Witness,
    _pair_mismatch,
    replay_witness,
    verify_locally_consistent,
)

from .oracles import ref_locally_consistent


# --- test helpers --------------------------------------------------------
# Each condition checked on its own, along one history or over one assembly.


def check_binding_exactly_two(tas: TileSystem, seq: AssemblySequence) -> Verdict:
    """Condition 1 along one attachment history."""
    states = seq.assemblies()
    for i, (pos, tile) in enumerate(seq.steps):
        before = states[i]
        total = binding_strength(tas, before, pos, tile)
        if total != 2:
            witness = Witness(
                kind="strength-sum",
                assembly=before,
                pos=pos,
                tile=tile,
                detail=f"tile {tas.tiles[tile].name} binds with strength {total}, not 2",
            )
            return Verdict(False, witness)
    return Verdict(True)


def check_no_mismatch(tas: TileSystem, asm: Assembly) -> Verdict:
    """Condition 2 over every abutting pair of one assembly."""
    for pos, _ in asm.items():
        for d in (Direction.N, Direction.E):  # each unordered pair once
            witness = _pair_mismatch(tas, asm, pos, d)
            if witness is not None:
                return Verdict(False, witness)
    return Verdict(True)


@pytest.mark.parametrize("name", ["elbow", "nondet_elbow", "counter4", "sierpinski"])
def test_corpus_members_pass(systems, name):
    verdict = verify_locally_consistent(systems[name], 25)
    assert verdict.passed
    assert verdict.witness is None
    assert "25" in verdict.note


@pytest.mark.parametrize("name", sorted(corpus.GENERATORS))
def test_verdict_matches_reference_check(systems, name):
    # the corpus includes elbow_bad_sum and elbow_mismatch, so both witness
    # kinds are compared as well as passing and truncated verdicts
    tas = systems[name]
    for bound in (*range(1, 13), 25):
        assert verify_locally_consistent(tas, bound) == ref_locally_consistent(tas, bound)


def test_check_reads_no_cells_and_explores_once(systems, monkeypatch):
    calls = {"cell": 0, "explore": 0}
    cell, explore_once = PackedStates.cell, consistency.explore

    def counted_cell(self, state_id, coord):
        calls["cell"] += 1
        return cell(self, state_id, coord)

    def counted_explore(tas, bound):
        calls["explore"] += 1
        return explore_once(tas, bound)

    monkeypatch.setattr(PackedStates, "cell", counted_cell)
    monkeypatch.setattr(consistency, "explore", counted_explore)
    assert verify_locally_consistent(systems["sierpinski"], 25).passed
    assert calls == {"cell": 0, "explore": 1}
    # the counter counts: the reference check reads four cells per edge
    ref_locally_consistent(systems["elbow"], 25)
    assert calls["cell"] > 0


def test_bad_sum_fails_with_replayable_witness(systems):
    tas = systems["elbow_bad_sum"]
    verdict = verify_locally_consistent(tas, 25)
    assert not verdict.passed
    assert verdict.witness is not None
    assert verdict.witness.kind == "strength-sum"
    assert replay_witness(tas, verdict.witness)
    assert verdict.witness.describe() == (
        "strength-sum at (1, 1): tile tX attaches at (1, 1) with strength 4, not 2"
    )


def test_mismatch_fails_with_replayable_witness(systems):
    tas = systems["elbow_mismatch"]
    verdict = verify_locally_consistent(tas, 25)
    assert not verdict.passed
    assert verdict.witness is not None
    assert verdict.witness.kind == "label-mismatch"
    assert verdict.witness.describe() == (
        "label-mismatch at (1, 1) toward W: c:1 abuts b:1 between (1, 1) and (0, 1)"
    )
    assert replay_witness(tas, verdict.witness)


def test_replay_rejects_unknown_kind(systems):
    tas = systems["elbow"]
    verdict = verify_locally_consistent(systems["elbow_bad_sum"], 25)
    witness = verdict.witness
    from dataclasses import replace

    with pytest.raises(ValueError):
        replay_witness(tas, replace(witness, kind="nonsense"))


def test_verdict_is_truthy(systems):
    assert verify_locally_consistent(systems["elbow"], 25)
    assert not verify_locally_consistent(systems["elbow_mismatch"], 25)


def test_truncation_note(systems):
    verdict = verify_locally_consistent(systems["counter3"], 12)
    assert verdict.passed and verdict.truncated
    assert "truncated" in verdict.note
    verdict = verify_locally_consistent(systems["elbow"], 25)
    assert not verdict.truncated
    assert "exhausted" in verdict.note


def test_history_check_finds_bad_sum(systems):
    tas = systems["elbow_bad_sum"]
    seq = AssemblySequence(
        tas, (((1, 0), 1), ((0, 1), 2), ((1, 1), 3))
    )
    verdict = check_binding_exactly_two(tas, seq)
    assert not verdict.passed
    assert verdict.witness.pos == (1, 1)
    good = sample_sequence(systems["elbow"], 0, 10)
    assert check_binding_exactly_two(systems["elbow"], good).passed


def test_assembly_check_finds_mismatch(systems):
    tas = systems["elbow_mismatch"]
    result = explore(tas, 6)
    flagged = [
        asm for asm in result.assemblies.values()
        if not check_no_mismatch(tas, asm).passed
    ]
    assert flagged  # the full square contains the clashing pair
    for asm in explore(systems["elbow"], 6).assemblies.values():
        assert check_no_mismatch(systems["elbow"], asm).passed


def test_membership_is_monotone_in_bound(systems):
    # growing the bound never flips a failing verdict back to passing
    tas = systems["elbow_bad_sum"]
    failed_at = [b for b in range(1, 10) if not verify_locally_consistent(tas, b).passed]
    assert failed_at
    first = min(failed_at)
    assert all(b in failed_at for b in range(first, 10))
