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

from collections import deque
from dataclasses import dataclass

from .atam import explore
from .blocks import BlockPhase, BlockState
from .encoding import CompiledSystem
# `decode_assembly` is unused here but stays a name of this module, because
# tilebench/probe.py counts decoding calls made through it
from .macro import (  # noqa: F401
    MacroExplorationResult,
    RepresentationError,
    decode_assembly,
    decode_block,
    decode_cells,
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


def _decode_all(cs: CompiledSystem, macro_result: MacroExplorationResult):
    """Map every macro state key to the key of its decoded assembly.

    The states share a few distinct block states, so each is decoded once.
    """
    tiles: dict[BlockState, int | None] = {}

    def decode(state: BlockState) -> int | None:
        if state not in tiles:
            tiles[state] = decode_block(state, cs)
        return tiles[state]

    return {
        key: frozenset(decode_cells(macro.blocks, decode).items())
        for key, macro in macro_result.states.items()
    }


def _coverage(cs, source_result, macro_result, decoded) -> ConditionReport:
    image = {}
    for mkey, akey in decoded.items():
        image.setdefault(akey, mkey)
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
                f"(macro state {len(image[k])} blocks)"
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
    source_edges = {(e.parent, e.child) for e in source_result.edges}

    # soundness: each macro step decodes to equality or one legal attachment
    for edge in macro_result.edges:
        pa, ca = decoded[edge.parent], decoded[edge.child]
        if pa == ca:
            continue
        if (pa, ca) not in source_edges:
            return ConditionReport(
                "dynamics",
                False,
                "a macro step decoded to a jump the source cannot make",
                witness=(
                    f"{edge.event.describe()}: decode changed "
                    f"{_sorted_cells(pa)} -> {_sorted_cells(ca)} "
                    f"with no matching source attachment"
                ),
            )

    # source reachability, then macro reachability from each pre-image set
    src_adj: dict[frozenset, list[frozenset]] = {}
    for p, c in source_edges:
        src_adj.setdefault(p, []).append(c)
    mac_adj: dict[frozenset, list[frozenset]] = {}
    for edge in macro_result.edges:
        mac_adj.setdefault(edge.parent, []).append(edge.child)
    preimages: dict[frozenset, list[frozenset]] = {}
    for mkey, akey in decoded.items():
        preimages.setdefault(akey, []).append(mkey)

    mimicked = 0
    for akey in source_result.assemblies:
        src_reach = _multi_closure((akey,), src_adj)
        macro_reach_decoded = {
            decoded[m] for m in _multi_closure(preimages.get(akey, ()), mac_adj)
        }
        unmatched = src_reach - macro_reach_decoded
        if unmatched:
            target = min(unmatched, key=len)
            return ConditionReport(
                "dynamics",
                False,
                "the macro cannot follow a source derivation",
                witness=(
                    f"from decodes of {_sorted_cells(akey)} the macro never reaches "
                    f"a decode of {_sorted_cells(target)}"
                ),
            )
        mimicked += len(src_reach)
    return ConditionReport(
        "dynamics",
        True,
        f"{len(macro_result.edges)} macro steps sound; "
        f"{mimicked} reachable source pairs mimicked",
    )


def _multi_closure(starts, adj: dict) -> set[frozenset]:
    seen = set(starts)
    queue = deque(seen)
    while queue:
        node = queue.popleft()
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


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
