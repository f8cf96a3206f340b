"""Slow, independent re-derivations used to pin the library's answers.

Everything here is written from the model definition alone, avoiding the
library's data structures and shortcuts: plain dicts for assemblies, a
from-scratch neighbour scan for strengths, binomials via math.comb, a
character-level reference for the pad and splice encoders, and the table
sweep walked one column at a time, and `ref_replay`, which replays a
seeded macro run's commits as source attachments in one linear pass.
Five are exceptions, each the slow path a fast one replaced, kept as the
oracle it must match: `ref_explore`, the breadth-first exploration keyed by
frozensets that `atam.explore`'s packed skeleton replaced,
`ref_terminal_keys`, the frontier test of every leaf that the cut states
recorded by that skeleton replaced, `ref_sample_sequence`, the random
attachment loop that sorts its whole front on every step, which `atam.walk`
replaced, `ref_locally_consistent`, the per-edge neighbour scan that the
clash side recorded on each `AttachmentEdge` replaced, and `ref_dynamics`,
the breadth-first closure per source assembly that the verifier's single
reverse pass replaced.
"""

from __future__ import annotations

import math
import random
from collections import deque

from tileworks.atam import (
    DIRECTIONS,
    OFFSETS,
    AssemblySequence,
    TileSystem,
    binding_strength,
    explore,
    frontier,
    is_terminal,
    seed_assembly,
)
from tileworks.consistency import Verdict, Witness, _note, _pair_mismatch
from tileworks.kernels import E_ADDR_RANGE, E_EMPTY_ENTRY, E_MALFORMED, OK, SweepRecord
from tileworks.macro import EventKind
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
