"""Desk-scale checks that the block simulation tracks the source system.

Three conditions, each over bounded explorations of both levels:

1. seed representation: the starting block decodes to the source seed;
2. block coverage: decoded images of reachable macro states are exactly the
   producible source assemblies (both inclusions, same bound on both sides);
3. dynamics: every macro step decodes to either the same assembly or a single
   legal source attachment, and from the pre-images of any source assembly the
   macro can go on to reach a decode of everything the source can reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .atam import Edges, explore
from .blocks import BlockPhase
from .encoding import CompiledSystem
from .macro import (
    EventKind,
    MacroExplorationResult,
    RepresentationError,
    _decode_at,
    decode_assembly,
    decode_block,
    macro_explore,
)


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    detail: str
    witness: str | None = None
    rows: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


@dataclass
class SimulationReport:
    seed: ConditionReport
    coverage: ConditionReport
    dynamics: ConditionReport
    bound: int
    source_truncated: bool
    macro_truncated: bool

    @property
    def passed(self) -> bool:
        return self.seed.passed and self.coverage.passed and self.dynamics.passed

    def to_text(self) -> str:
        lines = [
            "simulation report",
            f"bound: {self.bound}",
            f"source exploration truncated: {'yes' if self.source_truncated else 'no'}",
            f"macro exploration truncated: {'yes' if self.macro_truncated else 'no'}",
        ]
        for i, report in enumerate((self.seed, self.coverage, self.dynamics), start=1):
            status = "PASS" if report.passed else "FAIL"
            lines.append(f"condition {i} ({report.name}): {status} - {report.detail}")
            if report.witness:
                lines.append(f"  witness: {report.witness}")
            for row in report.rows:
                lines.append(f"  {row}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def check_seed_representation(cs: CompiledSystem) -> ConditionReport:
    """The macro starting state is one complete block decoding to the seed."""
    block = cs.seed_block
    try:
        decoded = decode_block(block, cs)
    except RepresentationError as exc:
        return ConditionReport(
            "seed block", False, "seed block fails integrity", witness=str(exc)
        )
    if block.phase is not BlockPhase.COMPLETE:
        return ConditionReport(
            "seed block", False, f"seed block phase is {block.phase.name}, not COMPLETE"
        )
    if decoded != cs.source.seed:
        name = cs.source.tiles[decoded].name if decoded is not None else "nothing"
        return ConditionReport(
            "seed block",
            False,
            f"seed block decodes to {name}, not the source seed",
        )
    return ConditionReport(
        "seed block",
        True,
        f"one complete block at the origin decodes to "
        f"{cs.source.seed_tile.name} (resolution {cs.resolution})",
    )


def _sorted_cells(key: frozenset) -> str:
    return str(sorted(key))


def _decode_all(cs: CompiledSystem, macro_result: MacroExplorationResult) -> list:
    """Every macro state's decoded image, by id, decoded along the edges.

    The start state is decoded whole.  Every other state is stored as the
    edge that first reached it, from a parent with a lower id, whose image is
    then known; the child's image is the parent's, except after a commit,
    which adds the one block it committed.  A completion copies the committed
    fields, so it cannot change the image.  Equal images are one frozenset
    object.
    """
    states, edges = macro_result.states, macro_result.edges
    start = decode_assembly(states[macro_result.seed_key], cs).key
    images: list = [start]
    interned = {start: start}
    commit = _commit_codes(edges)
    parents, codes, table = edges.parents, edges.codes, edges.table
    for child, e in enumerate(islice(states.born, 1, None), 1):
        image = images[parents[e]]
        code = codes[e]
        if commit[code]:
            coord = table[code][0].coord
            tile = _decode_at(cs, coord, states.cell(child, coord))
            image = image | {(coord, tile)}
            image = interned.setdefault(image, image)
        images.append(image)
    return images


def _commit_codes(edges: Edges) -> list[bool]:
    """Whether each code of `edges` applies a commit, the one event that can
    change a decoded image."""
    return [event.kind is EventKind.COMMIT for (event,) in edges.table]


def _coverage(cs, source_result, macro_result, decoded) -> ConditionReport:
    image = {}
    for state_id, akey in enumerate(decoded):
        image.setdefault(akey, state_id)
    missing = [k for k in source_result.assemblies if k not in image]
    extra = [k for k in image if k not in source_result.assemblies]
    rows = [
        f"source assemblies: {len(source_result.assemblies)}, "
        f"macro states: {len(macro_result.states)}, "
        f"distinct decoded images: {len(image)}"
    ]
    if missing:
        k = min(missing, key=len)
        return ConditionReport(
            "block coverage",
            False,
            f"{len(missing)} producible source assemblies never decoded",
            witness=f"producible but never decoded: {_sorted_cells(k)}",
            rows=tuple(rows),
        )
    if extra:
        k = min(extra, key=len)
        return ConditionReport(
            "block coverage",
            False,
            f"{len(extra)} decoded assemblies are not source-producible",
            witness=(
                f"decoded but not producible: {_sorted_cells(k)} "
                f"(macro state {len(macro_result.states[image[k]])} blocks)"
            ),
            rows=tuple(rows),
        )
    return ConditionReport(
        "block coverage",
        True,
        f"decoded images equal the producible set "
        f"({len(source_result.assemblies)} assemblies both ways)",
        rows=tuple(rows),
    )


def _dynamics(cs, source_result, macro_result, decoded) -> ConditionReport:
    order = list(source_result.assemblies)
    src = source_result.edges
    source_edges = {(order[p], order[c]) for p, c in zip(src.parents, src.children)}

    # soundness: each macro step decodes to equality or one legal attachment;
    # `_decode_all` gives a child its parent's image unless the step is a
    # commit, so only commit steps can change an image
    edges = macro_result.edges
    commit = _commit_codes(edges)
    for parent, child, code in zip(edges.parents, edges.children, edges.codes):
        if not commit[code]:
            continue
        pa, ca = decoded[parent], decoded[child]
        if pa == ca:
            continue
        if (pa, ca) not in source_edges:
            (event,) = edges.table[code]
            return ConditionReport(
                "dynamics",
                False,
                "a macro step decoded to a jump the source cannot make",
                witness=(
                    f"{event.describe()}: decode changed "
                    f"{_sorted_cells(pa)} -> {_sorted_cells(ca)} "
                    f"with no matching source attachment"
                ),
            )

    # completeness: one bit per source assembly, in exploration order; a macro
    # state owns the bit of its decoded image, if that is a source assembly.
    # `_decode_all` makes equal images one object, so the per-state lookups
    # go through dicts keyed by the images, which match by identity, and only
    # one lookup per distinct image compares it with the source keys
    bit = {akey: 1 << i for i, akey in enumerate(order)}
    own = {image: bit.get(image, 0) for image in dict.fromkeys(decoded)}
    src_reach = _reach(list(bit.values()), source_result.edges)
    mac_reach = _reach([own[image] for image in decoded], macro_result.edges)
    followed = dict.fromkeys(own, 0)
    for image, reach in zip(decoded, mac_reach):
        followed[image] |= reach
    for akey, reach in zip(order, src_reach):
        if missing := reach & ~followed.get(akey, 0):
            # the fewest tiles, then the first in source exploration order
            target = min((k for i, k in enumerate(order) if missing >> i & 1), key=len)
            return ConditionReport(
                "dynamics",
                False,
                "the macro cannot follow a source derivation",
                witness=(
                    f"from decodes of {_sorted_cells(akey)} the macro never reaches "
                    f"a decode of {_sorted_cells(target)}"
                ),
            )
    mimicked = sum(mask.bit_count() for mask in src_reach)
    return ConditionReport(
        "dynamics",
        True,
        f"{len(macro_result.edges)} macro steps sound; "
        f"{mimicked} reachable source pairs mimicked",
    )


def _reach(own: list[int], edges: Edges) -> list[int]:
    """`own`, each node's bits by id, with those of every node it reaches ORed in."""
    # One reverse pass suffices: every path to a node has the same length (a
    # source edge adds one tile; a macro event adds one to the sum, over
    # non-seed blocks, of received pads plus phase steps), so a breadth-first
    # exploration appends every edge into a node before any edge out of it.
    reach = own.copy()
    for parent, child in zip(reversed(edges.parents), reversed(edges.children)):
        reach[parent] |= reach[child]
    return reach


def simulation_report(cs: CompiledSystem, bound: int) -> SimulationReport:
    """All three conditions over one shared pair of explorations."""
    source_result = explore(cs.source, bound)
    macro_result = macro_explore(cs, bound)
    decoded = _decode_all(cs, macro_result)
    return SimulationReport(
        seed=check_seed_representation(cs),
        coverage=_coverage(cs, source_result, macro_result, decoded),
        dynamics=_dynamics(cs, source_result, macro_result, decoded),
        bound=bound,
        source_truncated=source_result.truncated,
        macro_truncated=macro_result.truncated,
    )
