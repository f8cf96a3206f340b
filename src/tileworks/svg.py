"""Deterministic SVG rendering of assemblies.

Output is byte-stable for a given assembly: cells are drawn in sorted order,
coordinates use fixed-precision formatting, and colors derive from a CRC of
the tile name.  Strength-2 glues are drawn as doubled ticks, strength-1 as
single ticks.
"""

from __future__ import annotations

import zlib

from .atam import DIRECTIONS, Assembly, Direction, TileSystem

_PALETTE = (
    "#dbeafe",
    "#dcfce7",
    "#fee2e2",
    "#fef9c3",
    "#f3e8ff",
    "#ffedd5",
    "#cffafe",
    "#fce7f3",
    "#ecfccb",
    "#e2e8f0",
)


def _fill(name: str) -> str:
    return _PALETTE[zlib.crc32(name.encode("utf-8")) % len(_PALETTE)]


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(tas: TileSystem, asm: Assembly, scale: int = 48) -> str:
    """One square per tile with its name and glue labels."""
    minx, miny, maxx, maxy = asm.bounds()
    pad = scale // 2
    width = (maxx - minx + 1) * scale + 2 * pad
    height = (maxy - miny + 1) * scale + 2 * pad

    def corner(pos):
        x, y = pos
        return (pad + (x - minx) * scale, pad + (maxy - y) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    tick = max(2, scale // 12)
    for pos, tile_index in asm.sorted_items():
        tile = tas.tiles[tile_index]
        sx, sy = corner(pos)
        parts.append(
            f'<rect class="cell" x="{sx}" y="{sy}" width="{scale}" height="{scale}" '
            f'fill="{_fill(tile.name)}" stroke="#334155" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{sx + scale / 2:.1f}" y="{sy + scale / 2:.1f}" '
            f'font-family="monospace" font-size="{scale * 0.22:.1f}" fill="#0f172a" '
            f'text-anchor="middle" dominant-baseline="central">{_esc(tile.name)}</text>'
        )
        for d, side in zip(DIRECTIONS, (tile.north, tile.east, tile.south, tile.west)):
            if side.glue is None:
                continue
            cx, cy = sx + scale / 2, sy + scale / 2
            if d is Direction.N:
                lx, ly = cx, sy + scale * 0.14
            elif d is Direction.S:
                lx, ly = cx, sy + scale * 0.90
            elif d is Direction.E:
                lx, ly = sx + scale * 0.88, cy
            else:
                lx, ly = sx + scale * 0.12, cy
            parts.append(
                f'<text x="{lx:.1f}" y="{ly:.1f}" font-family="monospace" '
                f'font-size="{scale * 0.16:.1f}" fill="#475569" text-anchor="middle" '
                f'dominant-baseline="central">{_esc(side.glue)}</text>'
            )
            half = scale * 0.10
            for k in range(side.strength):
                off = (k - (side.strength - 1) / 2) * tick
                if d is Direction.N:
                    y0 = sy + 0.5 + off
                    parts.append(_line(cx - half, y0, cx + half, y0))
                elif d is Direction.S:
                    y0 = sy + scale - 0.5 + off
                    parts.append(_line(cx - half, y0, cx + half, y0))
                elif d is Direction.E:
                    x0 = sx + scale - 0.5 + off
                    parts.append(_line(x0, cy - half, x0, cy + half))
                else:
                    x0 = sx + 0.5 + off
                    parts.append(_line(x0, cy - half, x0, cy + half))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _line(x1: float, y1: float, x2: float, y2: float) -> str:
    return (
        f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
        f'stroke="#334155" stroke-width="1"/>'
    )
