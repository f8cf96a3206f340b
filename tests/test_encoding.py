from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tileworks.atam import Direction, Pad, TileType, TileSystem
from tileworks.encoding import (
    ADDRESS_PAIR_ORDER,
    Address,
    AddressError,
    ClassError,
    DecodeError,
    EncodingError,
    GlueOrdering,
    address_map,
    address_of,
    build_entries,
    build_table,
    compile_system,
    decode_pad,
    default_random_width,
    encode_pad,
    serialize_compiled,
    splice_blanks,
)
from .oracles import (
    ref_build_entries,
    ref_edge_string,
    ref_encode_pad,
    ref_entry_bodies,
    ref_splice,
    strip_blanks,
)

DIRS = (Direction.N, Direction.E, Direction.S, Direction.W)


def check_entries(tas: TileSystem) -> None:
    """`build_entries` equals the value-by-value walk over every address."""
    ordering = GlueOrdering.from_system(tas)
    amap = address_map(tas, ordering)
    assert build_entries(tas, ordering, amap) == ref_build_entries(tas, ordering, amap)


def test_entries_match_the_value_by_value_walk(systems, lone_seed):
    for tas in (*systems.values(), lone_seed):
        check_entries(tas)


def test_ordering_from_system(systems):
    ordering = GlueOrdering.from_system(systems["elbow"])
    assert ordering.labels == (None, "a", "b", "c")
    assert ordering.width == 3
    assert ordering.pad_bits == 6
    assert "a" in ordering and "z" not in ordering
    with pytest.raises(EncodingError):
        ordering.index("z")


def test_ordering_width_examples(systems):
    # width is the bit length of the label count, null included:
    # elbow 4 labels -> 3, nondet elbow 5 labels -> 3, one glue 2 labels -> 2
    assert GlueOrdering.from_system(systems["nondet_elbow"]).width == 3
    one_glue = TileSystem(
        (TileType.make("s", e=("g", 2)), TileType.make("t", w=("g", 2))), seed=0
    )
    assert GlueOrdering.from_system(one_glue).labels == (None, "g")
    assert GlueOrdering.from_system(one_glue).width == 2


def test_pad_encoding_frozen_examples():
    ordering = GlueOrdering((None, "a", "b"), 2)
    assert encode_pad(Pad("a", Direction.E, 1), ordering) == "01010"
    assert encode_pad(Pad("b", Direction.N, 2), ordering) == "10001"
    elbow_ordering = GlueOrdering((None, "a", "b", "c"), 3)
    assert encode_pad(Pad("a", Direction.E, 2), elbow_ordering) == "001011"
    assert encode_pad(Pad("c", Direction.W, 1), elbow_ordering) == "011110"


def test_pad_roundtrip_exhaustive_small():
    for count in range(1, 9):
        labels = (None, *(f"g{i}" for i in range(count)))
        ordering = GlueOrdering(labels, len(labels).bit_length())
        for glue, d, s in itertools.product(labels[1:], DIRS, (1, 2)):
            pad = Pad(glue, d, s)
            bits = encode_pad(pad, ordering)
            assert len(bits) == ordering.pad_bits
            assert decode_pad(bits, ordering) == pad
            assert bits == ref_encode_pad(glue, d.name, s, labels)


@given(
    count=st.integers(min_value=1, max_value=40),
    index=st.integers(min_value=0, max_value=39),
    d=st.sampled_from(DIRS),
    s=st.sampled_from((1, 2)),
)
@settings(max_examples=200, deadline=None)
def test_pad_roundtrip_property(count, index, d, s):
    labels = (None, *(f"g{i}" for i in range(count)))
    ordering = GlueOrdering(labels, len(labels).bit_length())
    pad = Pad(labels[1 + index % count], d, s)
    assert decode_pad(encode_pad(pad, ordering), ordering) == pad


def test_decode_rejections():
    ordering = GlueOrdering((None, "a", "b"), 2)
    with pytest.raises(DecodeError):
        decode_pad("0101", ordering)  # too short
    with pytest.raises(DecodeError):
        decode_pad("00010", ordering)  # null glue index
    with pytest.raises(DecodeError):
        decode_pad("11010", ordering)  # index 3 out of range
    with pytest.raises(DecodeError):
        decode_pad("0a010", ordering)


def test_address_pair_canonical_order():
    ordering = GlueOrdering((None, "g"), 1)
    for d1, d2 in ADDRESS_PAIR_ORDER:
        a = address_of((Pad("g", d1, 1), Pad("g", d2, 1)), ordering)
        b = address_of((Pad("g", d2, 1), Pad("g", d1, 1)), ordering)
        assert a == b
        assert a.directions == (d1, d2)
        assert a.bits == encode_pad(Pad("g", d1, 1), ordering) + encode_pad(
            Pad("g", d2, 1), ordering
        )
    assert [(d1.name, d2.name) for d1, d2 in ADDRESS_PAIR_ORDER] == [
        ("E", "N"), ("S", "E"), ("W", "S"), ("N", "W"), ("N", "S"), ("E", "W")
    ]


def test_single_pad_address_zero_prefix():
    ordering = GlueOrdering((None, "g"), 1)
    a = address_of((Pad("g", Direction.E, 2),), ordering)
    assert a.bits == "0000" + "1011"
    assert isinstance(a, Address)
    with pytest.raises(AddressError):
        address_of((Pad("g", Direction.E, 1),), ordering)
    with pytest.raises(AddressError):
        address_of((Pad("g", Direction.E, 1), Pad("g", Direction.E, 1)), ordering)
    with pytest.raises(AddressError):
        address_of((Pad("g", Direction.E, 2), Pad("g", Direction.N, 1)), ordering)
    with pytest.raises(AddressError):
        address_of((), ordering)


def test_elbow_address_map_frozen(systems, compiled):
    cs = compiled["elbow"]
    assert sorted(cs.addresses) == [11, 15, 17, 21, 1948]
    names = {
        v: [cs.source.tiles[t].name for t in e.tiles] for v, e in cs.addresses.items()
    }
    assert names == {
        11: ["seed"], 15: ["tR"], 17: ["seed"], 21: ["tU"], 1948: ["tD"]
    }
    assert cs.addresses[1948].address.directions == (Direction.W, Direction.S)
    assert cs.entry_count == 1949


def test_elbow_entry_payloads_frozen(compiled):
    payloads = ref_entry_bodies(compiled["elbow"].entries)
    assert payloads[11] == "100010,,,"
    assert payloads[15] == "000110,,,"
    assert payloads[17] == ",110100,,"
    assert payloads[21] == ",010110,,"
    assert payloads[1948] == ",,,"
    assert payloads[0] == "" and payloads[12] == ""


def test_nondet_elbow_shared_entry(compiled):
    cs = compiled["nondet_elbow"]
    assert [cs.source.tiles[t].name for t in cs.addresses[1948].tiles] == ["tD", "tDp"]
    assert ref_entry_bodies(cs.entries)[1948] == ",,,;000001,,,"


def test_entries_marker_count(compiled):
    for cs in compiled.values():
        assert cs.entries.count("#") == cs.entry_count == 1 + max(cs.addresses)


def test_splice_and_strip():
    assert splice_blanks("abc") == "a b c" == ref_splice("abc")
    assert splice_blanks("x") == "x"
    assert strip_blanks(splice_blanks("#;,<>%01")) == "#;,<>%01"


@given(st.text(alphabet="01#;,<>%", min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_splice_properties(text):
    spliced = splice_blanks(text)
    assert spliced == ref_splice(text)
    assert len(spliced) == 2 * len(text) - 1
    assert all(spliced[i] == " " for i in range(1, len(spliced), 2))
    assert strip_blanks(spliced) == text


def test_table_framing(compiled):
    for cs in compiled.values():
        flat = strip_blanks(cs.table.symbols)
        entries = cs.entries
        assert flat == ">" + entries + "<%%>" + entries[::-1] + "<"


def check_edge_strings(cs) -> None:
    """Every edge string of every tile has the resolution, carries the table
    at both ends and repeats its side's pad field around the spacer."""
    tlen, width = len(cs.table.symbols), cs.glues.pad_bits
    for tile in cs.source.tiles:
        for d in DIRS:
            edge = ref_edge_string(cs.table, cs.glues, tile, d, cs.spacer)
            assert len(edge) == cs.resolution
            assert edge[:tlen] == cs.table.symbols == edge[-tlen:]
            side = tile.side(d)
            field = (
                "0" * width
                if side.glue is None
                else encode_pad(Pad(side.glue, d, side.strength), cs.glues)
            )
            assert edge[tlen:-tlen] == field + "0" * cs.spacer + field, (tile.name, d)


def test_edge_string_layout(compiled, lone_seed):
    for cs in (*compiled.values(), compile_system(lone_seed)):
        check_edge_strings(cs)
    cs = compiled["elbow"]
    tile = cs.source.tiles[cs.source.tile_index("tR")]
    tlen = len(cs.table.symbols)
    # null side carries the all-zero field
    south = ref_edge_string(cs.table, cs.glues, tile, Direction.S, cs.spacer)
    assert south[tlen : tlen + cs.glues.pad_bits] == "000000"
    west = ref_edge_string(cs.table, cs.glues, tile, Direction.W, cs.spacer)
    assert west[tlen : tlen + cs.glues.pad_bits] == encode_pad(
        Pad("a", Direction.W, 2), cs.glues
    )


def test_resolution_formula(compiled):
    for cs in compiled.values():
        assert cs.resolution == 2 * len(cs.table.symbols) + 2 * cs.glues.pad_bits + cs.spacer


def test_default_random_width(systems):
    amap = address_map(systems["elbow"], GlueOrdering.from_system(systems["elbow"]))
    assert default_random_width(amap) == 4
    nd = address_map(
        systems["nondet_elbow"], GlueOrdering.from_system(systems["nondet_elbow"])
    )
    assert default_random_width(nd) == 4  # widest entry is 2 -> 2 bits, floored to 4
    assert default_random_width({}) == 4  # no entries counts as one candidate


def test_compile_rejects_inconsistent_systems(systems):
    with pytest.raises(ClassError) as err:
        compile_system(systems["elbow_bad_sum"])
    assert "not locally consistent" in str(err.value)
    forced = compile_system(systems["elbow_bad_sum"], force=True)
    assert forced.lc_note == "consistency check skipped (forced)"


def test_compile_parameter_overrides(systems):
    cs = compile_system(systems["elbow"], spacer=10, random_width=7)
    assert cs.spacer == 10 and cs.random_width == 7
    assert cs.resolution == 2 * len(cs.table.symbols) + 2 * 6 + 10
    with pytest.raises(EncodingError):
        compile_system(systems["elbow"], random_width=0)


def test_serialize_is_deterministic_and_complete(compiled, systems, lone_seed):
    a = serialize_compiled(compiled["elbow"])
    b = serialize_compiled(compile_system(systems["elbow"]))
    assert a == b
    assert a.startswith("tileworks compiled system v1\n")
    for section in ("GLUES", "TABLE", "ADDRESSES", "PARAMS", "END"):
        assert f"\n{section}\n" in a or a.endswith(f"{section}\n")
    assert "\n1948 WS tD\n" in a
    assert "\nresolution 15944\n" in a
    assert " " not in a.split("\nTABLE\n")[1].split("\n")[0]  # blanks written as '_'
    # a consistent system where nothing attaches compiles to an empty table
    assert "\nentry_count 0\n" in serialize_compiled(compile_system(lone_seed))


def test_build_table_shape():
    table = build_table("#ab#")
    assert strip_blanks(table.symbols) == ">#ab#<%%>#ba#<"
    assert len(table.symbols) == 2 * len(">#ab#<%%>#ba#<") - 1
