"""The three workloads: their inputs, their operations and their checks.

A workload's `setup` builds one round's inputs from the run's random source
and does the compiling the verb does before it can run, then returns the
round's operations.  Each `Operation` runs one public call and checks what it
returned against `oracles`, and against the explorations the probe captured
while it ran.  A check returns a list of problems; an empty list means the
answer is right.  An operation that raised has no answer, so it is counted
as failed and not checked.

The tile list of every corpus system is shuffled by the seed (the seed tile
moves with it), so each seed gives the program differently numbered but
isomorphic inputs: the same work and the same counts.  `run_macro` seeds come
from the same random source.  The five-tile system is never shuffled: its
verify fails the same way in every run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import oracles

CHECK_LC_BOUND = 25
SIMULATE_EVENTS = 1500
SIMULATE_RUNS = 2
VERIFY_BOUND = 8
VERIFY_SMALL_BOUND = 6

# The five-tile system that passes check-lc but makes `simulation_report`
# raise ThreeProbeError: position (1,1) never holds a tile, yet three pads
# arrive there.  Rows: name, then (glue, strength) on the N, E, S, W sides.
FIVE_TILE = (
    ("seed", ("b", 2), ("a", 2), None, None),
    ("r1", ("c", 1), ("a2", 2), None, ("a", 2)),
    ("r2", ("g", 2), None, None, ("a2", 2)),
    ("u1", None, ("d", 1), ("b", 2), None),
    ("q", None, None, ("g", 2), ("e", 1)),
)


@dataclass
class Operation:
    label: str
    system: object
    run: Callable[[], object]
    check: Callable[[object, dict], list[str]]


def shuffled(tw, tas, rng):
    """The same system with its tile list in a seeded order."""
    order = list(range(len(tas.tiles)))
    rng.shuffle(order)
    tiles = tuple(tas.tiles[i] for i in order)
    return tw.atam.TileSystem(tiles, seed=order.index(tas.seed), name=tas.name)


def five_tile(tw):
    tiles = tuple(
        tw.atam.TileType.make(name, n=n, e=e, s=s, w=w) for name, n, e, s, w in FIVE_TILE
    )
    return tw.atam.TileSystem(tiles, seed=0, name="five_tile")


def only(captured: dict, name: str, problems: list[str]):
    results = captured.get(name, [])
    if len(results) != 1:
        problems.append(f"expected one {name} result, captured {len(results)}")
        return None
    return results[0]


def check_sierpinski_assemblies(label, assemblies, bound: int, name) -> list[str]:
    """One assembly per Young shape of at most `bound` tiles, with Pascal-parity tiles.

    `assemblies` are distinct collections of (position, tile) pairs, such as
    an exploration's keys; `name` maps a tile to its name, and is applied once
    per distinct pair.  Every tile is fixed by its position, so distinct
    assemblies have distinct shapes, and as many Young shapes as there are
    partitions of 1 to `bound` are every one of them.  No shape is kept, so
    the check adds little memory to the run's peak.
    """
    problems = []
    seen_cells = set()
    count = 0
    for cells in assemblies:
        count += 1
        seen_cells.update(cells)
        shape = oracles.young_partition([pos for pos, _ in cells])
        if shape is None or sum(shape) > bound:
            problems.append(f"{label}: {sorted(pos for pos, _ in cells)} is not a Young shape")
            break
    for pos, tile in seen_cells:
        if not oracles.sierpinski_tile_ok(pos, name(tile)):
            problems.append(f"{label}: tile {name(tile)} at {pos} breaks Pascal parity")
            break
    expected, _ = oracles.young_counts(bound)
    if count != expected:
        problems.append(f"{label}: {count} assemblies, expected {expected}")
    return problems


def tile_name(tas):
    return lambda t: tas.tiles[t].name


def check_witness(tas, verdict, kind: str) -> list[str]:
    """Re-check a failing verdict's witness with the plain-dict oracles."""
    w = verdict.witness
    if w is None or w.kind != kind:
        return [f"{tas.name}: expected a {kind} witness, got {w and w.kind}"]
    cells = dict(w.assembly.items())
    if kind == "strength-sum":
        total = oracles.naive_strength(tas, cells, w.pos, w.tile)
        if w.pos in cells or total <= 2:
            return [f"{tas.name}: witness {tas.tiles[w.tile].name} at {w.pos} binds with {total}"]
        return []
    if not oracles.mismatched(tas, cells, w.pos, w.direction.name):
        return [f"{tas.name}: witness at {w.pos} toward {w.direction.name} does not clash"]
    return []


# --- check-lc-sierpinski -------------------------------------------------


class CheckLc:
    name = "check-lc-sierpinski"
    round_seconds = 2.6

    def __init__(self, bound: int = CHECK_LC_BOUND):
        self.bound = bound

    def setup(self, tw, rng) -> list[Operation]:
        corpus = tw.corpus
        cases = (
            (corpus.sierpinski(), True, None),
            (corpus.counter(4), True, None),
            (corpus.elbow_bad_sum(), False, "strength-sum"),
            (corpus.elbow_mismatch(), False, "label-mismatch"),
        )
        ops = []
        for source, passes, kind in cases:
            tas = shuffled(tw, source, rng)
            ops.append(
                Operation(
                    f"check-lc {tas.name} --bound {self.bound}",
                    tas,
                    lambda tas=tas: tw.consistency.verify_locally_consistent(tas, self.bound),
                    lambda v, cap, tas=tas, passes=passes, kind=kind: self.check(
                        tas, passes, kind, v, cap
                    ),
                )
            )
        return ops

    def check(self, tas, passes, kind, verdict, captured) -> list[str]:
        problems = []
        if verdict.passed != passes:
            problems.append(f"{tas.name}: verdict {verdict.passed}, expected {passes}")
        elif not passes:
            problems += check_witness(tas, verdict, kind)
        elif verdict.witness is not None:
            problems.append(f"{tas.name}: a passing verdict carries a witness")
        result = only(captured, "atam.explore", problems)
        if result is None:
            return problems
        if verdict.truncated != result.truncated:
            problems.append(f"{tas.name}: verdict and exploration disagree on truncation")
        if tas.name == "sierpinski":
            _, attachments = oracles.young_counts(self.bound)
            problems += check_sierpinski_assemblies(
                tas.name, result.assemblies, self.bound, tile_name(tas)
            )
            if len(result.edges) != attachments:
                problems.append(
                    f"sierpinski: {len(result.edges)} attachments, expected {attachments}"
                )
            return problems
        found = set(result.assemblies)
        if tas.name.startswith("counter"):
            growth = oracles.sequential_growth(tas, self.bound - 1)
            prefixes = {frozenset(growth[:k]) for k in range(1, self.bound + 1)}
            if found != prefixes or len(result.edges) != self.bound - 1:
                problems.append(f"{tas.name}: explored assemblies are not the growth prefixes")
        elif found != oracles.brute_producibles(tas, self.bound):
            problems.append(f"{tas.name}: explored set differs from brute force")
        return problems


# --- simulate-counter4 ---------------------------------------------------


class Simulate:
    name = "simulate-counter4"
    round_seconds = 3.8

    def __init__(self, events: int = SIMULATE_EVENTS, runs: int = SIMULATE_RUNS):
        self.events = events
        self.runs = runs

    def setup(self, tw, rng) -> list[Operation]:
        tas = shuffled(tw, tw.corpus.counter(4), rng)
        cs = tw.encoding.compile_system(tas)
        ops = []
        for _ in range(self.runs):
            seed = rng.randrange(2**32)
            ops.append(
                Operation(
                    f"simulate counter4 --seed {seed} --max-events {self.events}",
                    tas,
                    lambda seed=seed: self.simulate(tw, cs, seed),
                    lambda out, cap, tas=tas: self.check(tas, out),
                )
            )
        return ops

    def simulate(self, tw, cs, seed):
        run = tw.macro.run_macro(cs, seed, max_events=self.events)
        return run, tw.macro.decode_assembly(run.final, cs)

    def check(self, tas, out) -> list[str]:
        run, decoded = out
        problems = []
        if len(run.events) != self.events or run.truncated:
            problems.append(f"run applied {len(run.events)} events, expected {self.events}")
        cells = dict(decoded.items())
        if cells != dict(oracles.sequential_growth(tas, len(cells) - 1)):
            problems.append(f"decoded {len(cells)} tiles differ from the grown counter")
        return problems


# --- verify-sierpinski ---------------------------------------------------


class Verify:
    name = "verify-sierpinski"
    round_seconds = 2.8

    def __init__(self, bound: int = VERIFY_BOUND, small_bound: int = VERIFY_SMALL_BOUND):
        self.bound = bound
        self.small_bound = small_bound

    def setup(self, tw, rng) -> list[Operation]:
        corpus = tw.corpus
        cases = (
            (shuffled(tw, corpus.sierpinski(), rng), self.bound),
            (shuffled(tw, corpus.nondet_elbow(), rng), self.small_bound),
            (five_tile(tw), self.small_bound),
        )
        ops = []
        for tas, bound in cases:
            cs = tw.encoding.compile_system(tas)
            ops.append(
                Operation(
                    f"verify {tas.name} --bound {bound}",
                    tas,
                    lambda cs=cs, bound=bound: tw.verifier.simulation_report(cs, bound),
                    lambda report, cap, tas=tas, cs=cs, bound=bound: self.check(
                        tw, tas, cs, bound, report, cap
                    ),
                )
            )
        return ops

    def check(self, tw, tas, cs, bound, report, captured) -> list[str]:
        problems = []
        if not report.passed:
            problems.append(f"{tas.name}: report fails:\n{report.to_text()}")
        source = only(captured, "atam.explore", problems)
        macro = only(captured, "macro.explore", problems)
        if source is None or macro is None:
            return problems
        try:
            images = {tw.macro.decode_assembly(m, cs).key for m in macro.states.values()}
        except tw.WorkbenchError as exc:
            return problems + [f"{tas.name}: a reached macro state does not decode: {exc}"]
        sources = set(source.assemblies)
        if tas.name == "sierpinski":
            expected, attachments = oracles.young_counts(bound)
            shown = re.search(r"source assemblies: (\d+)", "\n".join(report.coverage.rows))
            if shown is None or int(shown.group(1)) != expected:
                problems.append(f"sierpinski: report shows {shown and shown.group(1)} sources")
            problems += check_sierpinski_assemblies(
                "sierpinski source", sources, bound, tile_name(tas)
            )
            if len(source.edges) != attachments:
                problems.append(
                    f"sierpinski: {len(source.edges)} attachments, expected {attachments}"
                )
            problems += check_sierpinski_assemblies(
                "sierpinski decoded", images, bound, tile_name(tas)
            )
        else:
            brute = oracles.brute_producibles(tas, bound)
            if images != brute:
                problems.append(f"{tas.name}: decoded coverage differs from brute force")
            if sources != brute:
                problems.append(f"{tas.name}: explored set differs from brute force")
        return problems


WORKLOADS = {w.name: w for w in (CheckLc, Simulate, Verify)}
