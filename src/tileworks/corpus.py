"""Every named tile system, written once, with what is known of it.

The elbow family is small enough to reason about by hand; the counter grows
a binary count upward forever in alternating increment and copy rows;
`pascal(k)` paints Pascal's triangle mod k into the first quadrant, and
`sierpinski` is its k = 2 member; `line(n)` is n tiles in a row.  The rest
are small systems that single out one behaviour: a seed nothing attaches
to, and three systems that pass check-lc yet offer one position three pads.
`GENERATORS` lists the CLI's built-ins; `NAMED` lists every system at the
sizes the tests use, beside its known answers.
"""

from __future__ import annotations

from .atam import TileSystem, TileType


def _t(name: str, n=None, e=None, s=None, w=None) -> TileType:
    return TileType.make(name, n=n, e=e, s=s, w=w)


def elbow() -> TileSystem:
    """An L of four tiles: two strength-2 arms meeting in one cooperative corner."""
    tiles = (
        _t("seed", n=("b", 2), e=("a", 2)),
        _t("tR", w=("a", 2), n=("c", 1)),
        _t("tU", s=("b", 2), e=("c", 1)),
        _t("tD", w=("c", 1), s=("c", 1)),
    )
    return TileSystem(tiles, seed=0, name="elbow")


def nondet_elbow() -> TileSystem:
    """The elbow with a competing corner tile, the only nondeterministic site."""
    tiles = (
        _t("seed", n=("b", 2), e=("a", 2)),
        _t("tR", w=("a", 2), n=("c", 1)),
        _t("tU", s=("b", 2), e=("c", 1)),
        _t("tD", w=("c", 1), s=("c", 1)),
        _t("tDp", w=("c", 1), s=("c", 1), n=("d", 1)),
    )
    return TileSystem(tiles, seed=0, name="nondet_elbow")


def elbow_bad_sum() -> TileSystem:
    """Fault variant: the corner tile binds with strength 4 once both arms exist."""
    tiles = (
        _t("seed", n=("b", 2), e=("a", 2)),
        _t("tR", w=("a", 2), n=("c", 2)),
        _t("tU", s=("b", 2), e=("c", 2)),
        _t("tX", w=("c", 2), s=("c", 2)),
    )
    return TileSystem(tiles, seed=0, name="elbow_bad_sum")


def elbow_mismatch() -> TileSystem:
    """Fault variant: the corner tile abuts the up arm with clashing labels."""
    tiles = (
        _t("seed", n=("b", 2), e=("a", 2)),
        _t("tR", w=("a", 2), n=("c", 2)),
        _t("tU", s=("b", 2), e=("b", 1)),
        _t("tDv", s=("c", 2), w=("c", 1)),
    )
    return TileSystem(tiles, seed=0, name="elbow_mismatch")


def counter(width: int) -> TileSystem:
    """A zig-zag binary counter over `width` bit columns between two walls.

    Odd rows increment travelling west, even rows copy travelling east; the
    carry out of the top bit is dropped, so the count wraps mod 2**width and
    the assembly grows upward forever.  Growth is fully sequential: exactly
    one attachment is possible at every moment.
    """
    if width < 1:
        raise ValueError("counter width must be at least 1")
    tiles: list[TileType] = []
    tiles.append(_t("seed", e=("sc1", 2), n=("ww", 1)))
    for x in range(1, width + 1):
        tiles.append(
            _t(f"s{x}", w=(f"sc{x}", 2), e=(f"sc{x + 1}", 2), n=("b0", 1))
        )
    tiles.append(_t("se", w=(f"sc{width + 1}", 2), n=("start", 2)))
    tiles.append(_t("ie", s=("start", 2), n=("ew", 1), w=("k1", 1)))
    for b in (0, 1):
        for c in (0, 1):
            tiles.append(
                _t(
                    f"i{b}{c}",
                    s=(f"b{b}", 1),
                    e=(f"k{c}", 1),
                    n=(f"b{b ^ c}", 1),
                    w=(f"k{b & c}", 1),
                )
            )
    for c in (0, 1):
        tiles.append(_t(f"iw{c}", s=("ww", 1), e=(f"k{c}", 1), n=("turn", 2)))
    tiles.append(_t("cw", s=("turn", 2), n=("ww", 1), e=("cp", 1)))
    for b in (0, 1):
        tiles.append(
            _t(f"c{b}", s=(f"b{b}", 1), w=("cp", 1), n=(f"b{b}", 1), e=("cp", 1))
        )
    tiles.append(_t("ce", s=("ew", 1), w=("cp", 1), n=("start", 2)))
    return TileSystem(tuple(tiles), seed=0, name=f"counter{width}")


def _pascal_tiles(k: int) -> tuple[TileType, ...]:
    # each `x` tile is named by its two inputs, zero-padded to the width of k-1
    width = len(str(k - 1))
    tiles = [
        _t("seed", e=("br", 2), n=("bc", 2)),
        _t("r", w=("br", 2), e=("br", 2), n=("v1", 1)),
        _t("c", s=("bc", 2), n=("bc", 2), e=("h1", 1)),
    ]
    for b in range(k):
        for c in range(k):
            out = (b + c) % k
            tiles.append(
                _t(
                    f"x{b:0{width}}{c:0{width}}",
                    s=(f"v{b}", 1),
                    w=(f"h{c}", 1),
                    n=(f"v{out}", 1),
                    e=(f"h{out}", 1),
                )
            )
    return tuple(tiles)


def pascal(k: int) -> TileSystem:
    """Pascal's triangle mod k: k*k + 3 tiles and 2k + 2 glue labels.

    Strength-2 boundary arms run east and north from the seed; each interior
    tile reads one digit from the south and one from the west and emits
    their sum mod k both ways.
    """
    return TileSystem(_pascal_tiles(k), seed=0, name=f"pascal{k}")


def sierpinski() -> TileSystem:
    """Pascal's triangle mod 2: `pascal(2)`, whose interior tiles emit the XOR."""
    return TileSystem(_pascal_tiles(2), seed=0, name="sierpinski")


def line(n: int) -> TileSystem:
    """A seed and n-1 tiles in a row eastward, each bound by a strength-2 glue
    of its own: n tiles and n-1 glue labels."""
    tiles = [_t("t0", e=("g1", 2))]
    tiles += [_t(f"t{i}", w=(f"g{i}", 2), e=(f"g{i + 1}", 2)) for i in range(1, n - 1)]
    tiles.append(_t(f"t{n - 1}", w=(f"g{n - 1}", 2)))
    return TileSystem(tuple(tiles), seed=0, name=f"line{n}")


def lone_seed() -> TileSystem:
    """A seed nothing attaches to: its lookup table has no entries."""
    return TileSystem((_t("seed", e=("a", 1)),), seed=0, name="lone_seed")


# The next three pass check-lc, yet three pads are offered to (1, 1): the
# open three-pad case of the block program.


def five_tile() -> TileSystem:
    """(1, 1) never holds a tile: a run that delivers two of its pads and then
    probes is fine, one that delivers all three raises."""
    tiles = (
        _t("seed", e=("a", 2), n=("b", 2)),
        _t("r1", w=("a", 2), e=("a2", 2), n=("c", 1)),
        _t("r2", w=("a2", 2), n=("g", 2)),
        _t("u1", s=("b", 2), e=("d", 1)),
        _t("q", s=("g", 2), w=("e", 1)),
    )
    return TileSystem(tiles, seed=0, name="five_tile")


def three_probe() -> TileSystem:
    """Pads x arrive at (1, 1) from t1 below, t2 at the west and t4 at the east."""
    tiles = (
        _t("seed", e=("a", 2), n=("b", 2)),
        _t("t1", w=("a", 2), n=("x", 1), e=("c", 2)),
        _t("t2", s=("b", 2), e=("x", 1)),
        _t("t3", w=("c", 2), n=("d", 2)),
        _t("t4", s=("d", 2), w=("x", 1)),
    )
    return TileSystem(tiles, seed=0, name="three_probe")


def three_probe_north() -> TileSystem:
    """Pads arrive at (1, 1) from t1 below, t2 at the west and t4 above."""
    tiles = (
        _t("seed", n=("a", 2), e=("b", 2)),
        _t("t1", n=("x1", 1), w=("b", 2)),
        _t("t2", n=("c", 2), e=("x2", 1), s=("a", 2)),
        _t("t3", e=("d", 2), s=("c", 2)),
        _t("t4", s=("x3", 1), w=("d", 2)),
    )
    return TileSystem(tiles, seed=0, name="three_probe_north")


GENERATORS = {
    "elbow": elbow,
    "nondet_elbow": nondet_elbow,
    "elbow_bad_sum": elbow_bad_sum,
    "elbow_mismatch": elbow_mismatch,
    "counter3": lambda: counter(3),
    "counter4": lambda: counter(4),
    "sierpinski": sierpinski,
}

# Every named system at the sizes the tests use, with what is known of it at
# bound 25: its `check-lc` verdict ("pass", or the kind of witness it fails
# with) and its `explore` terminal count, None where the exploration is
# truncated.  Each family is listed at two sizes or more.
NAMED = {
    "elbow": (elbow, "pass", 1),
    "nondet_elbow": (nondet_elbow, "pass", 2),
    "elbow_bad_sum": (elbow_bad_sum, "strength-sum", 1),
    "elbow_mismatch": (elbow_mismatch, "label-mismatch", 1),
    "counter3": (GENERATORS["counter3"], "pass", None),
    "counter4": (GENERATORS["counter4"], "pass", None),
    "sierpinski": (sierpinski, "pass", None),
    "pascal3": (lambda: pascal(3), "pass", None),
    "pascal5": (lambda: pascal(5), "pass", None),
    "line2": (lambda: line(2), "pass", 1),
    "line5": (lambda: line(5), "pass", 1),
    "lone_seed": (lone_seed, "pass", 1),
    "five_tile": (five_tile, "pass", 1),
    "three_probe": (three_probe, "pass", 1),
    "three_probe_north": (three_probe_north, "pass", 1),
}
