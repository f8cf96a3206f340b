from __future__ import annotations

from tileworks.atam import Assembly, TileSystem, TileType, explore, seed_assembly
from tileworks.svg import render_svg


def _terminal_elbow(systems):
    tas = systems["elbow"]
    result = explore(tas, 6)
    (tkey,) = result.terminal_keys()
    return tas, result.states[tkey]


def test_render_is_byte_stable(systems):
    tas, asm = _terminal_elbow(systems)
    assert render_svg(tas, asm) == render_svg(tas, asm)


def test_one_cell_rect_per_tile(systems):
    tas, asm = _terminal_elbow(systems)
    svg = render_svg(tas, asm)
    assert svg.count('class="cell"') == len(asm) == 4
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    seed_only = render_svg(tas, seed_assembly(tas))
    assert seed_only.count('class="cell"') == 1


def test_scale_changes_dimensions(systems):
    tas, asm = _terminal_elbow(systems)
    small, big = render_svg(tas, asm, scale=24), render_svg(tas, asm, scale=96)
    assert small != big
    assert 'width="72"' in small  # 2 columns * 24 + 2 * 12 padding
    assert 'width="288"' in big


def test_names_and_glues_are_escaped():
    tile = TileType.make("a<b", n=("g&h", 2))
    tas = TileSystem((tile,), seed=0, name="esc")
    svg = render_svg(tas, seed_assembly(tas))
    assert "a&lt;b" in svg and "g&amp;h" in svg
    assert "a<b" not in svg


def test_strength_ticks_double_up(systems):
    tas = systems["elbow"]
    svg = render_svg(tas, seed_assembly(tas))
    # seed has two strength-2 glues: 2 ticks each, plus nothing else
    assert svg.count("<line ") == 4
