"""Plain-text tile system files.

Line oriented: '#' starts a comment, blank lines are skipped, and the three
statement forms are

    temperature 2
    tile NAME N=GLUE:S E=GLUE:S S=GLUE:S W=GLUE:S
    seed NAME

where GLUE is '-' exactly when S is 0 (the null glue).  The temperature line
is optional and only 2 is accepted.  Printing then parsing reproduces an
equal system.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .atam import TEMPERATURE, SidePad, TileSystem, TileType, WorkbenchError

_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
_SIDE_KEYS = ("N", "E", "S", "W")
_TOKEN = re.compile(r"\S+")


class TasParseError(WorkbenchError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class TasDocument:
    """A parsed system plus the line each tile was declared on."""

    system: TileSystem
    tile_lines: dict[str, int]


def _parse_side(token: str, lineno: int, col: int) -> tuple[str, SidePad]:
    if "=" not in token:
        raise TasParseError(f"expected KEY=GLUE:S, got {token!r}", lineno, col)
    key, _, rest = token.partition("=")
    if key not in _SIDE_KEYS:
        raise TasParseError(f"side key must be one of N,E,S,W, got {key!r}", lineno, col)
    if ":" not in rest:
        raise TasParseError(f"expected GLUE:S after {key}=, got {rest!r}", lineno, col)
    glue, _, stext = rest.partition(":")
    try:
        strength = int(stext)
    except ValueError:
        raise TasParseError(f"strength must be an integer, got {stext!r}", lineno, col) from None
    if glue == "-":
        if strength != 0:
            raise TasParseError("the null glue '-' requires strength 0", lineno, col)
        return key, SidePad(None, 0)
    if not _NAME.match(glue):
        raise TasParseError(f"bad glue name {glue!r}", lineno, col)
    if strength not in (1, 2):
        raise TasParseError(
            f"a named glue needs strength 1 or 2, got {strength}", lineno, col
        )
    return key, SidePad(glue, strength)


def parse_tas(text: str, name: str = "") -> TasDocument:
    tiles: list[TileType] = []
    tile_lines: dict[str, int] = {}
    seed_name: str | None = None
    seed_line = 0
    temperature: int | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        # each token with its 1-based column
        found = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(raw.split("#", 1)[0])]
        if not found:
            continue
        tokens = [token for token, _ in found]
        head, col = found[0]

        if head == "temperature":
            if len(tokens) != 2:
                raise TasParseError("temperature takes one value", lineno, col)
            try:
                temperature = int(tokens[1])
            except ValueError:
                raise TasParseError(
                    f"temperature must be an integer, got {tokens[1]!r}", lineno, col
                ) from None
            if temperature != TEMPERATURE:
                raise TasParseError(
                    f"only temperature {TEMPERATURE} is supported, got {temperature}",
                    lineno,
                    col,
                )
        elif head == "tile":
            if len(tokens) != 6:
                raise TasParseError(
                    "tile takes a name and four sides (N= E= S= W=)", lineno, col
                )
            tname = tokens[1]
            if not _NAME.match(tname):
                raise TasParseError(f"bad tile name {tname!r}", lineno, col)
            if tname in tile_lines:
                raise TasParseError(f"duplicate tile name {tname!r}", lineno, col)
            sides: dict[str, SidePad] = {}
            for token, tcol in found[2:]:
                key, pad = _parse_side(token, lineno, tcol)
                if key in sides:
                    raise TasParseError(f"duplicate side {key}", lineno, tcol)
                sides[key] = pad
            missing = [k for k in _SIDE_KEYS if k not in sides]
            if missing:
                raise TasParseError(f"missing sides {missing}", lineno, col)
            tiles.append(
                TileType(tname, sides["N"], sides["E"], sides["S"], sides["W"])
            )
            tile_lines[tname] = lineno
        elif head == "seed":
            if len(tokens) != 2:
                raise TasParseError("seed takes one tile name", lineno, col)
            if seed_name is not None:
                raise TasParseError("duplicate seed directive", lineno, col)
            seed_name = tokens[1]
            seed_line = lineno
        else:
            raise TasParseError(f"unknown directive {head!r}", lineno, col)

    if seed_name is None:
        raise TasParseError("no seed directive", max(1, text.count("\n") + 1))
    if seed_name not in tile_lines:
        raise TasParseError(f"seed names unknown tile {seed_name!r}", seed_line)
    system = TileSystem(
        tuple(tiles),
        seed=[t.name for t in tiles].index(seed_name),
        name=name,
    )
    return TasDocument(system, tile_lines)


def _format_side(key: str, pad: SidePad) -> str:
    glue = "-" if pad.glue is None else pad.glue
    return f"{key}={glue}:{pad.strength}"


def format_tas(tas: TileSystem) -> str:
    """Canonical text for a system; stable for byte comparison."""
    lines = []
    if tas.name:
        lines.append(f"# {tas.name} tile system")
    lines.append(f"temperature {TEMPERATURE}")
    for tile in tas.tiles:
        sides = " ".join(
            _format_side(k, pad)
            for k, pad in zip(_SIDE_KEYS, (tile.north, tile.east, tile.south, tile.west))
        )
        lines.append(f"tile {tile.name} {sides}")
    lines.append(f"seed {tas.tiles[tas.seed].name}")
    return "\n".join(lines) + "\n"
