from __future__ import annotations

import pytest

from tileworks.tasio import TasParseError, format_tas, parse_tas

GOOD = """\
# demo
temperature 2

tile seed N=b:2 E=a:2 S=-:0 W=-:0
tile arm  N=-:0 E=-:0 S=-:0 W=a:2   # trailing comment
seed seed
"""


def test_round_trip_all_corpus_systems(systems):
    for name, tas in systems.items():
        doc = parse_tas(format_tas(tas), name=name)
        assert doc.system.tiles == tas.tiles
        assert doc.system.seed == tas.seed
        assert doc.system.name == name


def test_parse_comments_and_whitespace():
    doc = parse_tas(GOOD)
    assert [t.name for t in doc.system.tiles] == ["seed", "arm"]
    assert doc.system.seed == 0
    assert doc.tile_lines == {"seed": 4, "arm": 5}
    arm = doc.system.tiles[1]
    assert arm.west.glue == "a" and arm.west.strength == 2
    assert arm.north.glue is None and arm.north.strength == 0


def _error(text: str) -> TasParseError:
    with pytest.raises(TasParseError) as info:
        parse_tas(text)
    return info.value


@pytest.mark.parametrize(
    ("line", "fragment"),
    [
        ("tile t N=g:0 E=-:0 S=-:0 W=-:0", "strength 1 or 2"),
        ("tile t N=-:1 E=-:0 S=-:0 W=-:0", "requires strength 0"),
        ("tile t N=g:x E=-:0 S=-:0 W=-:0", "integer"),
        ("tile t N=g E=-:0 S=-:0 W=-:0", "expected GLUE:S"),
        ("tile t Q=g:1 E=-:0 S=-:0 W=-:0", "one of N,E,S,W"),
        ("tile t N=g:1 N=g:1 S=-:0 W=-:0", "duplicate side"),
        ("tile t N=g:1 E=-:0 S=-:0", "four sides"),
        ("tile t* N=g:1 E=-:0 S=-:0 W=-:0", "bad tile name"),
        ("tile t N=g(:1 E=-:0 S=-:0 W=-:0", "bad glue name"),
        ("temperature 3", "only temperature 2"),
        ("temperature hot", "integer"),
        ("grow t", "unknown directive"),
    ],
)
def test_bad_statements(line, fragment):
    err = _error(line + "\ntile t2 N=-:0 E=-:0 S=-:0 W=a:2\nseed t2\n")
    assert fragment in str(err)
    assert err.line == 1


def test_duplicate_tile_and_seed():
    base = "tile t N=-:0 E=-:0 S=-:0 W=a:2\n"
    err = _error(base + base + "seed t\n")
    assert "duplicate tile" in str(err) and err.line == 2
    err = _error(base + "seed t\nseed t\n")
    assert "duplicate seed" in str(err) and err.line == 3


def test_missing_or_unknown_seed():
    err = _error("")
    assert "no seed" in str(err)
    err = _error("tile t N=-:0 E=-:0 S=-:0 W=a:2\n")
    assert "no seed" in str(err) and err.line == 2  # reported past the last line
    err = _error("tile t N=-:0 E=-:0 S=-:0 W=a:2\nseed ghost\n")
    assert "unknown tile 'ghost'" in str(err) and err.line == 2


def test_error_column_points_at_bad_token():
    err = _error("tile t N=b:2 E=oops S=-:0 W=-:0\nseed t\n")
    assert err.line == 1
    assert err.col == len("tile t N=b:2 ") + 1  # 1-based offset of the bad token
    assert "col 14" in str(err)


def test_error_column_points_at_repeated_token():
    # the duplicate is the second of two equal tokens, not the first
    err = _error("tile s N=a:2 N=a:2 S=-:0 W=-:0\nseed s\n")
    assert "duplicate side N" in str(err)
    assert err.col == len("tile s N=a:2 ") + 1
    assert "col 14" in str(err)
    err = _error("tile   t   N=g:1  E=-:0 S=-:0   E=-:0\nseed t\n")
    assert err.col == len("tile   t   N=g:1  E=-:0 S=-:0   ") + 1


def test_format_is_stable():
    text = format_tas(parse_tas(GOOD, name="demo").system)
    assert text == format_tas(parse_tas(text, name="demo").system)
    assert text.startswith("# demo tile system\ntemperature 2\n")
