"""Slow, independent re-derivations used to pin the library's answers.

Everything here is written from the model definition alone, avoiding the
library's data structures and shortcuts: plain dicts for assemblies, a
from-scratch neighbour scan for strengths, binomials via math.comb, a
character-level reference for the pad and splice encoders, the table
sweep walked one column at a time, the direct lookup route, which parses
the entries string and never reads the table, the fairness counts of the
sweep's selections, the block edge strings whose length is the resolution,
and `ref_replay`, which replays a seeded macro run's commits as source
attachments in one linear pass.
Nine are exceptions, each the slow path a fast one replaced, kept as the
oracle it must match: `ref_build_entries`, the walk over every address value
up to the largest that `encoding.build_entries`' runs of bare markers
replaced, `ref_explore`, the breadth-first exploration keyed by
frozensets that `atam.explore`'s packed skeleton replaced,
`ref_terminal_keys`, the frontier test of every leaf that the cut states
recorded by that skeleton replaced, `ref_sample_sequence`, the random
attachment loop that sorts its whole front on every step, which `atam.walk`
replaced, `ref_locally_consistent`, the per-edge neighbour scan that the
clash side recorded on each `AttachmentEdge` replaced, `ref_dynamics`,
the breadth-first closure per source assembly that the verifier's single
reverse pass replaced, and the block level's `ref_scan_frontier`,
`ref_rescan_run` and `ref_macro_explore`, which `macro_frontier`,
`run_macro` and `macro_explore` replaced.
`ref_check_automaton` re-derives every entry of a filled block automaton
from the block program it interns.
"""

from __future__ import annotations

import functools
import math
import random
from collections import deque
from typing import NamedTuple

from tileworks.atam import (
    DIRECTIONS,
    OFFSETS,
    AssemblySequence,
    Pad,
    TileSystem,
    binding_strength,
    explore,
    frontier,
    is_terminal,
    seed_assembly,
)
from tileworks.blocks import BlockPhase, MacroAssembly, detect_kind
from tileworks.consistency import Verdict, Witness, _note, _pair_mismatch
from tileworks.encoding import DecodeError, _sub_entry, address_of, decode_pad
from tileworks.kernels import E_ADDR_RANGE, E_EMPTY_ENTRY, E_MALFORMED, OK, SweepRecord
from tileworks.lookup import (
    AddressRangeError,
    EmptyEntryError,
    LookupError_,
    SelectionError,
    trace_lookup,
)
from tileworks.macro import (
    EventKind,
    MacroEdge,
    MacroEvent,
    _next_state,
    decode_block,
    seed_macro,
)
from tileworks.verifier import ConditionReport

_DIRS = (("N", (0, 1)), ("E", (1, 0)), ("S", (0, -1)), ("W", (-1, 0)))
_SIDE_OF = {"N": "north", "E": "east", "S": "south", "W": "west"}
_FLIP = {"N": "S", "S": "N", "E": "W", "W": "E"}


def naive_strength(tas: TileSystem, cells: dict, pos: tuple, tile: int) -> int:
    """Binding strength by direct neighbour scan over a plain dict."""
    total = 0
    t = tas.tiles[tile]
    for dname, (dx, dy) in _DIRS:
        q = (pos[0] + dx, pos[1] + dy)
        if q not in cells:
            continue
        mine = getattr(t, _SIDE_OF[dname])
        theirs = getattr(tas.tiles[cells[q]], _SIDE_OF[_FLIP[dname]])
        if mine.glue is not None and mine.glue == theirs.glue and mine.strength == theirs.strength:
            total += mine.strength
    return total


def naive_sides(tas: TileSystem, cells: dict, pos, tile) -> set:
    """Directions on which `tile` at `pos` bonds, one neighbour at a time."""
    out = set()
    for d in DIRECTIONS:
        q = d.step(pos)
        if q in cells and naive_strength(tas, {q: cells[q]}, pos, tile) > 0:
            out.add(d)
    return out


class NoAttachmentRecordError(LookupError):
    pass


def attachment_sides(seq: AssemblySequence, pos: tuple) -> set:
    """Sides on which the tile at `pos` bonded when the sequence placed it."""
    for i, (p, tile) in enumerate(seq.steps):
        if p == pos:
            return naive_sides(seq.system, dict(seq.assemblies()[i].items()), pos, tile)
    raise NoAttachmentRecordError(f"no step in the sequence places a tile at {pos}")


def brute_producibles(tas: TileSystem, bound: int) -> set[frozenset]:
    """Every producible assembly of at most `bound` tiles, the slow way."""
    seed = {(0, 0): tas.seed}
    seen = {frozenset(seed.items())}
    stack = [seed]
    while stack:
        cells = stack.pop()
        if len(cells) >= bound:
            continue
        empties = set()
        for (x, y) in cells:
            for _, (dx, dy) in _DIRS:
                q = (x + dx, y + dy)
                if q not in cells:
                    empties.add(q)
        for pos in empties:
            for tile in range(len(tas.tiles)):
                if naive_strength(tas, cells, pos, tile) >= 2:
                    child = dict(cells)
                    child[pos] = tile
                    key = frozenset(child.items())
                    if key not in seen:
                        seen.add(key)
                        stack.append(child)
    return seen


def naive_frontier(tas: TileSystem, cells: dict) -> set[tuple]:
    """Every (position, tile) that may attach to a plain-dict assembly."""
    found = set()
    for (x, y) in cells:
        for _, (dx, dy) in _DIRS:
            q = (x + dx, y + dy)
            if q in cells:
                continue
            for tile in range(len(tas.tiles)):
                if naive_strength(tas, cells, q, tile) >= 2:
                    found.add((q, tile))
    return found


def brute_attachments(tas: TileSystem, bound: int) -> set[tuple]:
    """Every legal attachment out of a producible assembly of fewer than `bound` tiles.

    Each is (parent key, child key, position, tile, strength), with keys as
    frozensets of (position, tile index) pairs.
    """
    edges = set()
    for key in brute_producibles(tas, bound):
        cells = dict(key)
        if len(cells) >= bound:
            continue
        for pos, tile in naive_frontier(tas, cells):
            child = dict(cells)
            child[pos] = tile
            strength = naive_strength(tas, cells, pos, tile)
            edges.add((key, frozenset(child.items()), pos, tile, strength))
    return edges


def naive_locally_consistent(tas: TileSystem, bound: int) -> bool:
    """Both conditions of local consistency, checked over the brute-force sets.

    Every attachment out of an assembly below the bound has strength exactly
    2, and no producible assembly holds an abutting pair where either side
    has positive strength and the two glues differ in label or strength.
    """
    if any(strength != 2 for *_, strength in brute_attachments(tas, bound)):
        return False
    return not any(
        naive_clash(tas, dict(key), pos, dname)
        for key in brute_producibles(tas, bound)
        for pos, _ in key
        for dname, _ in _DIRS
    )


def naive_clash(tas: TileSystem, cells: dict, pos: tuple, dname: str) -> bool:
    """Whether the tile at `pos` and its neighbour toward `dname` ("N", ...) disagree.

    They disagree when either facing glue has positive strength and the two
    differ in label or strength.
    """
    dx, dy = dict(_DIRS)[dname]
    other = cells.get((pos[0] + dx, pos[1] + dy))
    if other is None:
        return False
    mine = getattr(tas.tiles[cells[pos]], _SIDE_OF[dname])
    theirs = getattr(tas.tiles[other], _SIDE_OF[_FLIP[dname]])
    return bool(mine.strength or theirs.strength) and (
        (mine.glue, mine.strength) != (theirs.glue, theirs.strength)
    )


def ref_replay(tas: TileSystem, run, decoded: dict) -> str | None:
    """The first way a macro run departs from the source model, or None.

    The run is replayed in order onto a plain dict that starts at the seed.
    Each pad arrival must come from a placed neighbour, on the side that
    faces it, with the glue and strength that neighbour's tile shows there.
    Each commit attaches the tile its log line names: the position must be
    empty, and the tile must bind with strength exactly 2 and clash with no
    present neighbour.  `decoded`, the run's final state decoded to
    {position: tile index}, must equal the result.
    """
    names = {tile.name: i for i, tile in enumerate(tas.tiles)}
    offsets = dict(_DIRS)
    cells = {(0, 0): tas.seed}
    for event, note in zip(run.events, run.log):
        pos = event.coord
        if event.kind is EventKind.PAD_ARRIVAL:
            dname = event.pad.direction.name
            dx, dy = offsets[dname]
            if event.source != (pos[0] + dx, pos[1] + dy) or event.source not in cells:
                return f"{note}: no placed neighbour on that side"
            side = getattr(tas.tiles[cells[event.source]], _SIDE_OF[_FLIP[dname]])
            if (side.glue, side.strength) != (event.pad.glue, event.pad.strength):
                return f"{note}: the neighbour shows {side.glue}:{side.strength} there"
        if event.kind is not EventKind.COMMIT:
            continue
        tile = names[note.rsplit(" -> ", 1)[1]]
        if pos in cells:
            return f"{note}: position already holds {tas.tiles[cells[pos]].name}"
        strength = naive_strength(tas, cells, pos, tile)
        if strength != 2:
            return f"{note}: binds with strength {strength}"
        cells[pos] = tile
        if any(naive_clash(tas, cells, pos, dname) for dname, _ in _DIRS):
            return f"{note}: clashes with a neighbour"
    if decoded != cells:
        return f"final decode {_cells(decoded.items())} is not the replay {_cells(cells.items())}"
    return None


def pascal_parity(x: int, y: int) -> int:
    """Parity of C(x + y, x), computed with actual binomials."""
    return math.comb(x + y, x) % 2


def ref_encode_pad(glue: str, direction: str, strength: int, labels: tuple) -> str:
    """Reference pad field built character by character."""
    width = len(labels).bit_length()
    idx = labels.index(glue)
    glue_bits = bin(idx)[2:].rjust(width, "0")
    dir_bits = {"N": "00", "E": "01", "S": "10", "W": "11"}[direction]
    return glue_bits + dir_bits + ("0" if strength == 1 else "1")


def ref_build_entries(tas: TileSystem, ordering, amap: dict) -> str:
    """The entries string, one address value at a time from 0 to the largest
    in `amap`: a bare '#' where no tile attaches."""
    parts = []
    for value in range(max(amap, default=-1) + 1):
        entry = amap.get(value)
        if entry is None:
            parts.append("#")
        else:
            subs = [_sub_entry(tas.tiles[t], entry.address, ordering) for t in entry.tiles]
            parts.append("#" + ";".join(subs))
    return "".join(parts)


def ref_splice(text: str) -> str:
    """Loop-based blank splicing."""
    out = []
    for i, ch in enumerate(text):
        if i:
            out.append(" ")
        out.append(ch)
    return "".join(out)


def strip_blanks(text: str) -> str:
    """The symbols of a spliced string, without the blanks between them."""
    return text[::2]


def ref_sweep(table: str, addr: int, b: int) -> SweepRecord:
    """Reference table sweep, one column at a time, as a block's automaton walks it.

    On counter4's table it is several thousand times slower than
    `kernels.sweep`, which must return the same record.
    """
    ncols = len(table)
    # structure first: a leading '>' and the spliced '< % % >' middle,
    # seven columns from the first '<'
    if ncols == 0 or table[0] != ">":
        return SweepRecord(E_MALFORMED)
    middle_lt = 0
    while middle_lt < ncols and table[middle_lt] != "<":
        middle_lt += 1
    middle_gt = middle_lt + 6
    if (
        middle_gt >= ncols
        or table[middle_lt + 2] != "%"
        or table[middle_lt + 4] != "%"
        or table[middle_gt] != ">"
    ):
        return SweepRecord(E_MALFORMED)

    # phase 1: walk to the marker of entry `addr`
    entry = -1
    match = -1
    for col in range(middle_lt):
        if table[col] == "#":
            entry += 1
            if entry == addr:
                match = col
                break
    if match < 0:
        return SweepRecord(E_ADDR_RANGE)

    # count sub-entries up to the end of the matched entry
    n = 0
    payload = False
    col = match + 1
    while table[col] not in "#<":
        if table[col] != " ":
            payload = True
            if table[col] == ";":
                n += 1
        col += 1
    match_end = col
    if payload:
        n += 1

    # count entries left before the middle
    m = sum(1 for col in range(match_end, middle_lt) if table[col] == "#")
    found = dict(
        match=match, match_end=match_end, n=n, m=m,
        middle_lt=middle_lt, middle_gt=middle_gt,
    )
    if n == 0:
        return SweepRecord(E_EMPTY_ENTRY, **found)
    p = b % n

    # phase 2: count down m entry markers past the middle, landing on the
    # mirrored copy of the matched entry
    mirror_lo = -1
    seen = 0
    col = middle_gt + 1
    while col < ncols:
        if seen == m:
            while col < ncols and table[col] == " ":
                col += 1
            mirror_lo = col
            break
        if table[col] == "#":
            seen += 1
        col += 1
    if mirror_lo < 0 or mirror_lo >= ncols:
        return SweepRecord(E_MALFORMED)
    col = mirror_lo
    while col < ncols and table[col] != "#":
        col += 1
    if col >= ncols:
        return SweepRecord(E_MALFORMED)
    mirror_hi = col

    # skip p sub-entry separators inside the mirrored entry
    sel_lo = mirror_lo
    seen = 0
    col = mirror_lo
    while col < mirror_hi and seen < p:
        if table[col] == ";":
            seen += 1
            if seen == p:
                col += 1
                while col < mirror_hi and table[col] == " ":
                    col += 1
                sel_lo = col
                break
        col += 1
    col = sel_lo
    while col < mirror_hi and table[col] != ";":
        col += 1
    return SweepRecord(
        OK, **found, p=p, mirror_lo=mirror_lo, mirror_hi=mirror_hi,
        sel_lo=sel_lo, sel_hi=col,
    )


def _front_key(item: tuple) -> tuple:
    """The order attachments are explored and drawn in: by row, column, then tile."""
    (x, y), tile = item
    return (y, x, tile)


def ref_explore(tas: TileSystem, bound: int):
    """`atam.explore` as it was before the packed skeleton: states keyed by
    their frozensets, each expanded by its whole frontier.

    Returns the assemblies by key in exploration order, the edges as
    (parent key, child key, position, tile, strength) and the truncation.
    """
    seed = seed_assembly(tas)
    assemblies = {seed.key: seed}
    edges = []
    queue = deque([seed.key])
    truncated = False
    while queue:
        key = queue.popleft()
        asm = assemblies[key]
        front = frontier(tas, asm)
        if len(asm) >= bound:
            truncated = truncated or bool(front)
            continue
        for pos, tile in sorted(front, key=_front_key):
            strength = binding_strength(tas, asm, pos, tile)
            ckey = key | {(pos, tile)}
            if ckey not in assemblies:
                assemblies[ckey] = asm.with_tile(pos, tile)
                queue.append(ckey)
            edges.append((key, ckey, pos, tile, strength))
    return assemblies, edges, truncated


def ref_terminal_keys(tas: TileSystem, result) -> list[int]:
    """`ExplorationResult.terminal_keys` as it was before the skeleton
    recorded its cut states: every leaf below the bound, and every leaf at
    it whose whole frontier is empty."""
    out = {}
    for state_id in set(result.states) - {e.parent for e in result.edges}:
        asm = result.states[state_id]
        if len(asm) < result.bound or is_terminal(tas, asm):
            out[state_id] = asm.key
    return sorted(out, key=lambda i: (len(out[i]), sorted(out[i])))


def ref_sample_sequence(tas: TileSystem, rng_seed: int, max_steps: int) -> AssemblySequence:
    """`atam.sample_sequence` as it was before `atam.walk`: the whole front
    sorted on every step, the new tile's empty neighbours rescanned with
    `naive_strength`."""
    rng = random.Random(rng_seed)
    cells = {(0, 0): tas.seed}
    front = naive_frontier(tas, cells)
    steps = []
    while front and len(steps) < max_steps:
        ordered = sorted(front, key=_front_key)
        pos, tile = ordered[rng.randrange(len(ordered))]
        steps.append((pos, tile))
        cells[pos] = tile
        near = [(pos[0] + dx, pos[1] + dy) for _, (dx, dy) in _DIRS]
        front = {pt for pt in front if pt[0] != pos} | {
            (q, t)
            for q in near
            if q not in cells
            for t in range(len(tas.tiles))
            if naive_strength(tas, cells, q, t) >= 2
        }
    return AssemblySequence(tas, tuple(steps))


def ref_locally_consistent(tas: TileSystem, bound: int) -> Verdict:
    """`consistency.verify_locally_consistent` as it was before the clash side
    was recorded on each edge: condition 1 on each edge's strength, condition 2
    by reading the child's four neighbours of the new tile off the store.
    """
    result = explore(tas, bound)
    states = result.states
    clash = tas.glue_tables.clash
    note = _note(bound, result.truncated)
    for edge in result.edges:
        if edge.strength != 2:
            witness = Witness(
                kind="strength-sum",
                assembly=states[edge.parent],
                pos=edge.pos,
                tile=edge.tile,
                detail=(
                    f"tile {tas.tiles[edge.tile].name} attaches at {edge.pos} "
                    f"with strength {edge.strength}, not 2"
                ),
            )
            return Verdict(False, witness, result.truncated, note)
        x, y = edge.pos
        for k, (dx, dy) in enumerate(OFFSETS):
            if states.cell(edge.child, (x + dx, y + dy)) in clash[k][edge.tile]:
                witness = _pair_mismatch(tas, states[edge.child], edge.pos, DIRECTIONS[k])
                return Verdict(False, witness, result.truncated, note)
    return Verdict(True, None, result.truncated, note)


def first_clash_side(tas: TileSystem, cells: dict, pos: tuple) -> int | None:
    """The first side k (N, E, S, W) where the tile at `pos` clashes, by `naive_clash`."""
    return next(
        (k for k, (dname, _) in enumerate(_DIRS) if naive_clash(tas, cells, pos, dname)), None
    )


def _cells(key: frozenset) -> str:
    return str(sorted(key))


def _closure(starts, adj: dict) -> set:
    seen = set(starts)
    queue = deque(seen)
    while queue:
        for nxt in adj.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def ref_dynamics(source_result, macro_result, decoded: list) -> ConditionReport:
    """Condition 3 with one breadth-first closure per source assembly on each graph.

    Soundness: every macro step decodes to no change or to a source edge.
    Completeness: from the pre-images of each source assembly, in exploration
    order, the macro reaches a decode of everything the source reaches; the
    witness target is the unmatched assembly with the fewest tiles, then the
    first in source exploration order.
    """
    keys = list(source_result.assemblies)
    source_edges = {(keys[e.parent], keys[e.child]) for e in source_result.edges}
    for edge in macro_result.edges:
        pa, ca = decoded[edge.parent], decoded[edge.child]
        if pa != ca and (pa, ca) not in source_edges:
            return ConditionReport(
                "dynamics",
                False,
                "a macro step decoded to a jump the source cannot make",
                witness=(
                    f"{edge.event.describe()}: decode changed {_cells(pa)} -> "
                    f"{_cells(ca)} with no matching source attachment"
                ),
            )
    src_adj, mac_adj, preimages = {}, {}, {}
    for p, c in source_edges:
        src_adj.setdefault(p, []).append(c)
    for edge in macro_result.edges:
        mac_adj.setdefault(edge.parent, []).append(edge.child)
    for state_id, akey in enumerate(decoded):
        preimages.setdefault(akey, []).append(state_id)
    mimicked = 0
    for akey in source_result.assemblies:
        src_reach = _closure((akey,), src_adj)
        followed = {decoded[m] for m in _closure(preimages.get(akey, ()), mac_adj)}
        unmatched = src_reach - followed
        if unmatched:
            target = min((k for k in source_result.assemblies if k in unmatched), key=len)
            return ConditionReport(
                "dynamics",
                False,
                "the macro cannot follow a source derivation",
                witness=(
                    f"from decodes of {_cells(akey)} the macro never reaches "
                    f"a decode of {_cells(target)}"
                ),
            )
        mimicked += len(src_reach)
    return ConditionReport(
        "dynamics",
        True,
        f"{len(macro_result.edges)} macro steps sound; "
        f"{mimicked} reachable source pairs mimicked",
    )


# --- the direct lookup route -------------------------------------------------


class EntryFormatError(LookupError_):
    pass


def ref_parse_entry(entry: str, ordering) -> tuple[tuple[Pad, ...], ...]:
    """One raw entry ('#' plus payload) parsed into its sub-entries' pad
    tuples, in N,E,S,W side order, without the table."""
    if not entry.startswith("#"):
        raise EntryFormatError(f"an entry starts with '#', got {entry[:8]!r}")
    payload = entry[1:]
    if "#" in payload:
        raise EntryFormatError("an entry holds no '#' past its marker")
    if payload == "":
        return ()
    subs = []
    for chunk in payload.split(";"):
        fields = chunk.split(",")
        if len(fields) != 4:
            raise EntryFormatError(
                f"a sub-entry has four comma-separated fields, got {chunk!r}"
            )
        pads = []
        for field_text, direction in zip(fields, DIRECTIONS):
            if field_text == "":
                continue
            try:
                pad = decode_pad(field_text[::-1], ordering)  # fields are reversed
            except DecodeError as exc:
                raise EntryFormatError(f"bad pad field {field_text!r}: {exc}") from exc
            if pad.direction is not direction:
                raise EntryFormatError(
                    f"field for side {direction.name} decodes to side {pad.direction.name}"
                )
            pads.append(pad)
        subs.append(tuple(pads))
    return tuple(subs)


@functools.lru_cache(maxsize=8)
def ref_entry_bodies(entries: str) -> tuple[str, ...]:
    """The raw entry bodies (the text after each '#'), indexed by address value."""
    return tuple(entries.split("#")[1:])


def ref_direct_lookup(cs, addr: int, p: int) -> tuple[Pad, ...]:
    """Sub-entry `p` of entry `addr`, parsed straight from `cs.entries`: the
    answer `lookup.trace_lookup` must give for any bits that select `p`,
    found without the table, the sweep or the address map."""
    bodies = ref_entry_bodies(cs.entries)
    if addr < 0 or addr >= len(bodies):
        raise AddressRangeError(
            f"address {addr} out of range; table has {len(bodies)} entries"
        )
    subs = ref_parse_entry("#" + bodies[addr], cs.glues)
    if not subs:
        raise EmptyEntryError(f"entry {addr} is bare; no tile attaches there")
    if not 0 <= p < len(subs):
        raise SelectionError(f"sub-entry index {p} out of range for {len(subs)} sub-entries")
    return subs[p]


def ref_selection_counts(cs, addr: int, width: int | None = None) -> dict[int, int]:
    """How often the sweep picks each original sub-entry index of entry
    `addr`, over all bit strings of `width` bits."""
    width = cs.random_width if width is None else width
    counts: dict[int, int] = {}
    for b in range(2**width):
        outcome, _ = trace_lookup(cs, addr, format(b, f"0{width}b"))
        counts[outcome.selected_index] = counts.get(outcome.selected_index, 0) + 1
    return counts


def ref_edge_string(table, ordering, tile, direction, spacer: int) -> str:
    """One block edge: table copy, pad field, spacer zeros, pad field, table copy.

    Every side gets a pad field, built by `ref_encode_pad`, with the all-zero
    field standing in for the null glue.  North/south edges read west to
    east, east/west edges south to north; the string is the same both ways
    since the two table copies are identical.  Its length is the resolution.
    """
    side = tile.side(direction)
    if side.glue is None:
        pad_field = "0" * ordering.pad_bits
    else:
        pad_field = ref_encode_pad(side.glue, direction.name, side.strength, ordering.labels)
    return table.symbols + pad_field + "0" * spacer + pad_field + table.symbols


# --- the block level's replaced loops ----------------------------------------
# `ref_scan_frontier` and `ref_rescan_run` are the frontier scan and the run
# loop that `macro_frontier` and `run_macro` replaced: every step rescans
# every block and rebuilds the whole assembly, so a run is quadratic in its
# length.  `ref_macro_explore` is the exploration loop that `macro_explore`
# replaced: a full frontier scan per state and one `apply_event` per event
# and, for a commit, per random-bit value, with states keyed by their
# frozenset keys.  All three call `_next_state` on block states, not the
# automaton, and ask the address map where the engines ask the table.


def apply_event(cs, macro, event, **kwargs):
    """`macro` with `event` applied; `kwargs` go to `_next_state`."""
    state = _next_state(cs, macro.get(event.coord), event, **kwargs)
    return macro.with_block(event.coord, state)


def _event_order(event):
    """The order `macro_frontier` lists events in: kind, y, x, then the
    receiving side in N, E, S, W order (-1 for a block's own event)."""
    side = -1 if event.pad is None else DIRECTIONS.index(event.pad.direction)
    return (int(event.kind), event.coord[1], event.coord[0], side)


def ref_scan_frontier(cs, macro) -> tuple:
    """Every enabled event of `macro`, re-derived from each block's phase and
    pads by a scan of every block: the answer `macro_frontier` must give."""
    events = []
    for coord, state in macro.blocks.items():
        if state.phase is BlockPhase.COMPLETE:
            for pad in state.output_pads:
                target = pad.direction.step(coord)
                received = Pad(pad.glue, pad.direction.opposite, pad.strength)
                neighbour = macro.get(target)
                if neighbour is None:
                    events.append(
                        MacroEvent(EventKind.PAD_ARRIVAL, target, received, coord)
                    )
                elif (
                    neighbour.phase is BlockPhase.INPUTS_PARTIAL
                    and received.direction not in neighbour.input_directions
                ):
                    events.append(
                        MacroEvent(EventKind.PAD_ARRIVAL, target, received, coord)
                    )
        elif state.phase is BlockPhase.INPUTS_PARTIAL:
            if state.received_strength == 2:
                events.append(MacroEvent(EventKind.PROBE, coord))
        elif state.phase is BlockPhase.TYPE_DETECTED:
            if address_of(state.input_pads, cs.glues).value in cs.addresses:
                events.append(MacroEvent(EventKind.COMMIT, coord))
        elif state.phase is BlockPhase.COMMITTED:
            events.append(MacroEvent(EventKind.COMPLETION, coord))
    events.sort(key=_event_order)
    return tuple(events)


class RescanRun(NamedTuple):
    """What `ref_rescan_run` returns: the fields of a `MacroRun`, its log built eagerly."""

    events: tuple
    log: tuple
    final: MacroAssembly
    truncated: bool


def ref_rescan_run(cs, rng_seed, *, max_events=100_000, bound=None) -> RescanRun:
    """A seeded block run, re-derived by rescanning the whole frontier before
    every step: the events, log, final blocks and truncation `run_macro` must
    give for the same seed."""
    rng = random.Random(rng_seed)
    macro = seed_macro(cs)
    applied = []
    log = []
    truncated = False
    bits_at = {}  # the bits each probe drew, kept for its block's commit
    while len(applied) < max_events:
        events = list(ref_scan_frontier(cs, macro))
        if bound is not None:
            kept = []
            for ev in events:
                if (
                    ev.kind is EventKind.PAD_ARRIVAL
                    and ev.coord not in macro.blocks
                    and len(macro) >= bound
                ):
                    truncated = True
                    continue
                kept.append(ev)
            events = kept
        if not events:
            break
        event = events[rng.randrange(len(events))]
        if event.kind is EventKind.PROBE:
            bits_at[event.coord] = format(
                rng.getrandbits(cs.random_width), f"0{cs.random_width}b"
            )
        bits = bits_at.get(event.coord) if event.kind is EventKind.COMMIT else None
        macro = apply_event(cs, macro, event, bits=bits)
        applied.append(event)
        note = event.describe()
        if event.kind is EventKind.PROBE:
            state = macro.get(event.coord)
            note += f" [{detect_kind(state.input_pads).value}, bits={bits_at[event.coord]}]"
        elif event.kind is EventKind.COMMIT:
            state = macro.get(event.coord)
            note += f" -> {cs.source.tiles[decode_block(state, cs)].name}"
        log.append(note)
    return RescanRun(tuple(applied), tuple(log), macro, truncated)


class ReferenceExploration(NamedTuple):
    """What `ref_macro_explore` returns: states and edges keyed by each
    state's frozenset key, and the fields of an `ExplorationResult` that the
    tests compare."""

    states: dict
    edges: tuple
    seed_key: frozenset
    truncated: bool


def ref_macro_explore(cs, bound) -> ReferenceExploration:
    """The breadth-first macro exploration up to `bound` blocks, re-derived
    with a full frontier scan per state and every random-bit value per
    commit: the states, edges and cut `macro_explore` must give."""
    start = seed_macro(cs)
    states = {start.key: start}
    edges = []
    queue = deque([start.key])
    truncated = False
    bit_values = [format(b, f"0{cs.random_width}b") for b in range(2**cs.random_width)]
    while queue:
        key = queue.popleft()
        macro = states[key]
        for event in ref_scan_frontier(cs, macro):
            if (
                event.kind is EventKind.PAD_ARRIVAL
                and event.coord not in macro.blocks
                and len(macro) >= bound
            ):
                truncated = True
                continue
            if event.kind is EventKind.COMMIT:
                seen_children = set()
                for bits in bit_values:
                    child = apply_event(cs, macro, event, bits=bits)
                    ckey = child.key
                    if ckey in seen_children:
                        continue
                    seen_children.add(ckey)
                    if ckey not in states:
                        states[ckey] = child
                        queue.append(ckey)
                    edges.append(MacroEdge(key, ckey, event))
            else:
                child = apply_event(cs, macro, event)
                ckey = child.key
                if ckey not in states:
                    states[ckey] = child
                    queue.append(ckey)
                edges.append(MacroEdge(key, ckey, event))
    return ReferenceExploration(states, tuple(edges), start.key, truncated)


def ref_check_automaton(cs) -> None:
    """Every entry `cs.automaton` holds, re-derived from its definition: each
    step (id, code) -> id, or (id, code, p) -> id for a commit, against
    `_next_state` on the stored state with every bit string that selects
    sub-entry p; each event code against its kind and pad; and each id's
    facts against its block state's fields, `decode_block` and the address
    map.  Then every bit string, given to `_next_state` at each committing
    id, must land on the state its keyed step gives."""
    auto = cs.automaton
    assert auto.states[0] is None and len(auto.ids) == len(auto.states) - 1
    assert [auto.ids.get(state, 0) for state in auto.states] == list(range(len(auto.states)))
    lengths = {len(facts) for facts in (auto.tiles, auto.open, auto.own, auto.subs, auto.offers)}
    assert lengths == {len(auto.states)}
    assert (auto.tiles[0], auto.own[0], auto.subs[0], auto.offers[0]) == (None, None, 0, None)
    assert auto.open[0] == tuple((k, d.vector) for k, d in enumerate(DIRECTIONS))
    # own events are coded by their kind, arrivals by their pad as received
    assert auto.events[:4] == [(kind, None) for kind in EventKind]
    assert sorted(auto.codes.values()) == list(range(4, len(auto.events)))
    for pad, code in auto.codes.items():
        assert auto.events[code] == (EventKind.PAD_ARRIVAL, pad)
    every_bits = [format(b, f"0{cs.random_width}b") for b in range(2**cs.random_width)]
    for (here, code, *pick), after in auto.steps.items():
        # the outcome of a step depends on neither the coordinate nor the source
        event = auto.event((0, 0), code)
        draws = [None]
        if pick:
            assert event.kind is EventKind.COMMIT
            draws = [bits for bits in every_bits if int(bits, 2) % auto.subs[here] == pick[0]]
            assert draws, (here, pick)
        for bits in draws:
            state = _next_state(cs, auto.states[here], event, bits=bits)
            assert auto.ids[state] == after, (here, code, pick, bits)
    for i, state in enumerate(auto.states[1:], 1):
        phase, taken = state.phase, {p.direction for p in state.input_pads}
        assert auto.tiles[i] == decode_block(state, cs)
        collecting = phase is BlockPhase.INPUTS_PARTIAL
        assert auto.open[i] == tuple(
            (k, d.vector) for k, d in enumerate(DIRECTIONS) if collecting and d not in taken
        )
        strength = sum(p.strength for p in state.input_pads)
        own = {
            BlockPhase.INPUTS_PARTIAL: EventKind.PROBE if strength == 2 else None,
            BlockPhase.COMMITTED: EventKind.COMPLETION,
            BlockPhase.COMPLETE: None,
        }
        subs = 0
        if phase is BlockPhase.TYPE_DETECTED:
            entry = cs.addresses.get(address_of(state.input_pads, cs.glues).value)
            own[phase] = EventKind.COMMIT if entry else None
            subs = len(entry.tiles) if entry else 0
        assert auto.own[i] == own[phase] and type(auto.own[i]) is not EventKind, state
        assert auto.subs[i] == subs, state
        if phase is not BlockPhase.COMPLETE:
            assert auto.offers[i] is None
            continue
        # a pad pointing at a neighbour arrives on that neighbour's facing side
        offers = [0] * len(DIRECTIONS)
        for p in state.output_pads:
            side = p.direction.opposite
            offers[DIRECTIONS.index(side)] = auto.codes[Pad(p.glue, side, p.strength)]
        assert auto.offers[i] == tuple(offers), state
    for i in [i for i, own in enumerate(auto.own) if own == EventKind.COMMIT]:
        commit = MacroEvent(EventKind.COMMIT, (0, 0))
        for bits in every_bits:
            want = _next_state(cs, auto.states[i], commit, bits=bits)
            assert auto.states[auto.step(i, int(EventKind.COMMIT), (0, 0), bits)] == want, (i, bits)
