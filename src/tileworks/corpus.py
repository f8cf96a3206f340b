"""Built-in example systems used throughout the tests and the CLI.

All generators return plain tile systems.  The elbow family is small enough
to reason about by hand; the counter grows a binary count upward forever in
alternating increment and copy rows; the sierpinski system paints Pascal's
triangle mod 2 into the first quadrant.
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


def sierpinski() -> TileSystem:
    """Pascal's triangle mod 2 growing into the first quadrant.

    Strength-2 boundary arms run east and north from the seed; each interior
    tile reads one bit from the south and one from the west and emits their
    XOR both ways.
    """
    tiles = [
        _t("seed", e=("br", 2), n=("bc", 2)),
        _t("r", w=("br", 2), e=("br", 2), n=("v1", 1)),
        _t("c", s=("bc", 2), n=("bc", 2), e=("h1", 1)),
    ]
    for b in (0, 1):
        for c in (0, 1):
            tiles.append(
                _t(
                    f"x{b}{c}",
                    s=(f"v{b}", 1),
                    w=(f"h{c}", 1),
                    n=(f"v{b ^ c}", 1),
                    e=(f"h{b ^ c}", 1),
                )
            )
    return TileSystem(tuple(tiles), seed=0, name="sierpinski")


GENERATORS = {
    "elbow": elbow,
    "nondet_elbow": nondet_elbow,
    "elbow_bad_sum": elbow_bad_sum,
    "elbow_mismatch": elbow_mismatch,
    "counter3": lambda: counter(3),
    "counter4": lambda: counter(4),
    "sierpinski": sierpinski,
}
