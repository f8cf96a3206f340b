from __future__ import annotations

import tracemalloc

import pytest

from tileworks.atam import Assembly, TileSystem, attach, explore, frontier, seed_assembly
from tileworks.consistency import verify_locally_consistent
from tileworks.corpus import GENERATORS, NAMED, line, pascal
from tileworks.encoding import compile_system
from tileworks.verifier import simulation_report

from .oracles import pascal_parity


# --- test helpers --------------------------------------------------------
# Readers of the corpus systems' tiles.


def counter_width(tas: TileSystem) -> int:
    names = {t.name for t in tas.tiles}
    width = 0
    while f"s{width + 1}" in names:
        width += 1
    if width == 0:
        raise ValueError("not a counter system")
    return width


_COUNTER_BITS = {
    **{f"i{b}{c}": b ^ c for b in (0, 1) for c in (0, 1)},
    "c0": 0,
    "c1": 1,
}


def counter_value(tas: TileSystem, asm: Assembly, row: int) -> int | None:
    """The number encoded by logical row `row`, or None if it is incomplete.

    Logical row 0 is the seed row (value 0); logical row k >= 1 lives at
    physical row 2k - 1, the increment row that produced it.  Bits read most
    significant at the west.
    """
    width = counter_width(tas)
    y = 0 if row == 0 else 2 * row - 1
    value = 0
    for x in range(1, width + 1):
        tile_index = asm.get((x, y))
        if tile_index is None:
            return None
        name = tas.tiles[tile_index].name
        if name.startswith("s"):
            bit = 0
        else:
            bit = _COUNTER_BITS.get(name)
            if bit is None:
                return None
        value = (value << 1) | bit
    return value


def sierpinski_bit(tas: TileSystem, tile_index: int) -> int:
    """The parity a sierpinski tile writes into its cell."""
    name = tas.tiles[tile_index].name
    if name in ("seed", "r", "c"):
        return 1
    if name.startswith("x"):
        return int(name[1]) ^ int(name[2])
    raise ValueError(f"not a sierpinski tile: {name}")


def _grow_counter(tas, steps):
    asm = seed_assembly(tas)
    for _ in range(steps):
        front = frontier(tas, asm)
        assert len(front) == 1, "counter growth must stay sequential"
        ((pos, tile),) = front
        asm = attach(tas, asm, pos, tile)
    return asm


def test_counter_rows_count_in_binary(systems):
    tas = systems["counter3"]
    asm = _grow_counter(tas, 69)  # 70 tiles: seed row + 13 more complete rows
    values = [counter_value(tas, asm, row) for row in range(8)]
    assert values == list(range(8))


def test_counter_wraps_at_width(systems):
    tas = systems["counter3"]
    asm = _grow_counter(tas, 99)
    # 20 complete rows of 5 tiles; logical rows alternate increment/copy,
    # so row k holds k mod 8
    assert counter_value(tas, asm, 8) == 0
    assert counter_value(tas, asm, 9) == 1


def test_counter_value_none_on_incomplete_row(systems):
    tas = systems["counter3"]
    asm = _grow_counter(tas, 7)  # one tile into the first increment row
    assert counter_value(tas, asm, 0) == 0
    assert counter_value(tas, asm, 1) is None


def test_counter_width(systems):
    assert counter_width(systems["counter3"]) == 3
    assert counter_width(systems["counter4"]) == 4
    with pytest.raises(ValueError):
        counter_width(systems["elbow"])


def test_sierpinski_corner_matches_pascal_parity(systems):
    tas = systems["sierpinski"]
    asm = seed_assembly(tas)
    cells = sorted(
        ((x, y) for x in range(8) for y in range(8) if (x, y) != (0, 0)),
        key=lambda c: (c[0] + c[1], c[0]),
    )
    for pos in cells:
        candidates = [
            (p, t) for p, t in frontier(tas, asm) if p == pos
        ]
        assert len(candidates) == 1, f"growth at {pos} must be forced"
        asm = attach(tas, asm, *candidates[0])
    mismatches = [
        (x, y)
        for x in range(8)
        for y in range(8)
        if sierpinski_bit(tas, asm[(x, y)]) != pascal_parity(x, y)
    ]
    assert mismatches == []


def test_sierpinski_bit_rejects_foreign_tile(systems):
    tas = systems["elbow"]
    with pytest.raises(ValueError):
        sierpinski_bit(tas, tas.tile_index("tR"))


def test_generator_registry_is_complete():
    assert set(GENERATORS) == {
        "elbow",
        "nondet_elbow",
        "elbow_bad_sum",
        "elbow_mismatch",
        "counter3",
        "counter4",
        "sierpinski",
    }


@pytest.mark.parametrize("name", NAMED)
def test_named_system_has_its_known_answers(name):
    build, lc, terminals = NAMED[name]
    tas = build()
    assert tas.name == name
    verdict = verify_locally_consistent(tas, 25)
    assert ("pass" if verdict.passed else verdict.witness.kind) == lc
    result = explore(tas, 25)
    assert (None if result.truncated else len(result.terminal_keys())) == terminals


def test_tile_counts_quoted_in_the_readme(systems):
    assert {name: len(tas.tiles) for name, tas in systems.items()} == {
        "elbow": 4,
        "nondet_elbow": 5,
        "elbow_bad_sum": 4,
        "elbow_mismatch": 4,
        "counter3": 16,
        "counter4": 17,
        "sierpinski": 7,
    }


def test_line_4000_checks_and_compiles_in_linear_memory():
    # a table of every clashing tile pair once made this about 1.9 GB;
    # the whole build, check and compile now peak near 13 MiB
    tracemalloc.start()
    try:
        tas = line(4000)
        verdict = verify_locally_consistent(tas, 25)
        cs = compile_system(tas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.passed and verdict.truncated
    assert (len(tas.tiles), cs.resolution, cs.entry_count) == (4000, 1407539, 32000)
    assert peak < 64 * 2**20


def test_pascal_families_pass_check_and_verify():
    for k in (3, 5):
        tas = pascal(k)
        assert len(tas.tiles) == k * k + 3
        assert verify_locally_consistent(tas, 25).passed
        assert simulation_report(compile_system(tas), 6).passed
