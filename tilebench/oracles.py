"""Answers computed apart from tileworks, for checking what it returns.

Nothing here calls into the package.  Tile systems are read only through
their plain attributes (each tile's `name` and its `north`/`east`/`south`/
`west` pads with `glue` and `strength`), assemblies are plain dicts or sets
of (position, tile index) pairs, and the counts for `sierpinski` come from
integer partitions rather than from any exploration.

The plain-dict strength, the brute-force producible set and Pascal parity
are the repository's own test oracles, `tests/oracles.py`.  That module
imports `tileworks.atam`, so import this one only after the package.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path


def _load_test_oracles():
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("tileworks_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tests = _load_test_oracles()
naive_strength = _tests.naive_strength
brute_producibles = _tests.brute_producibles
pascal_parity = _tests.pascal_parity

SIDES = {
    "N": ("north", (0, 1)),
    "E": ("east", (1, 0)),
    "S": ("south", (0, -1)),
    "W": ("west", (-1, 0)),
}
FACING = {"N": "S", "S": "N", "E": "W", "W": "E"}


def mismatched(tas, cells: dict, pos: tuple, side: str) -> bool:
    """Whether the tiles at `pos` and its neighbour on `side` ("N", "E", ...) clash.

    A clash is a facing pair where either glue has positive strength and the
    two differ in label or strength.
    """
    attr, (dx, dy) = SIDES[side]
    other = cells.get((pos[0] + dx, pos[1] + dy))
    if pos not in cells or other is None:
        return False
    mine = getattr(tas.tiles[cells[pos]], attr)
    theirs = getattr(tas.tiles[other], SIDES[FACING[side]][0])
    return (mine.strength > 0 or theirs.strength > 0) and (
        (mine.glue, mine.strength) != (theirs.glue, theirs.strength)
    )


def sequential_growth(tas, steps: int) -> list[tuple[tuple, int]]:
    """The single attachment order of a system that never has a choice.

    Returns the seed followed by `steps` attachments, as (position, tile
    index) pairs.  Raises ValueError as soon as two attachments, or none, are
    possible.  Only the empty cells next to the newest tile are looked at
    again, since a cell's options change only when a neighbour arrives.
    """
    origin = (0, 0)
    cells = {origin: tas.seed}
    order = [(origin, tas.seed)]
    options: dict[tuple, list[int]] = {}
    newest = origin
    for _ in range(steps):
        for _, (dx, dy) in SIDES.values():
            q = (newest[0] + dx, newest[1] + dy)
            if q not in cells:
                options[q] = [
                    t for t in range(len(tas.tiles)) if naive_strength(tas, cells, q, t) >= 2
                ]
        choices = [(pos, t) for pos, tiles in options.items() for t in tiles]
        if len(choices) != 1:
            raise ValueError(f"{len(choices)} attachments possible after {len(cells)} tiles")
        newest, tile = choices[0]
        cells[newest] = tile
        del options[newest]
        order.append((newest, tile))
    return order


def partitions(n: int):
    """Every partition of `n`, as non-increasing tuples of parts, one at a time."""

    def parts(rest: int, largest: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, largest), 0, -1):
            for tail in parts(rest - first, first):
                yield (first, *tail)

    return parts(n, n)


def young_counts(bound: int) -> tuple[int, int]:
    """Assemblies and attachments of `sierpinski` explored up to `bound` tiles.

    Its producible shapes are the Young diagrams, one per partition, and an
    assembly of k < bound tiles has one attachment per addable cell: one more
    than the number of distinct part sizes.  Nothing is kept, so the checks
    add no memory of their own to the run's peak.
    """
    assemblies = attachments = 0
    for k in range(1, bound + 1):
        for p in partitions(k):
            assemblies += 1
            if k < bound:
                attachments += len(set(p)) + 1
    return assemblies, attachments


def young_partition(positions) -> tuple[int, ...] | None:
    """The row lengths, bottom row first, if `positions` form a Young shape.

    In French notation: rows 0, 1, ... each fill columns 0 to their length
    minus one, and no row is longer than the one below.  Returns None for
    any other shape.
    """
    rows = Counter(y for _, y in positions)
    lengths = tuple(rows[y] for y in range(len(rows)))
    if any(n == 0 for n in lengths) or any(a < b for a, b in zip(lengths, lengths[1:])):
        return None
    if any(x < 0 or x >= lengths[y] for x, y in positions):
        return None
    return lengths


def sierpinski_tile_ok(pos: tuple, name: str) -> bool:
    """Whether tile `name` at `pos` writes C(x+y, x) mod 2 from the right inputs.

    Boundary tiles write 1.  An interior tile `x<b><c>` reads b from the cell
    below and c from the cell to the left, and writes b xor c.
    """
    x, y = pos
    if name in ("seed", "r", "c"):
        expected = {"seed": (0, 0), "r": (x, 0), "c": (0, y)}[name]
        return pos == expected and (name != "r" or x > 0) and (name != "c" or y > 0)
    if len(name) != 3 or name[0] != "x" or x < 1 or y < 1:
        return False
    b, c = int(name[1]), int(name[2])
    return (
        b == pascal_parity(x, y - 1)
        and c == pascal_parity(x - 1, y)
        and b ^ c == pascal_parity(x, y)
    )
