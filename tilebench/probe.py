"""Capture and timing wrappers around the public calls of each tileworks layer.

Nothing inside the package is changed.  A `Probe` replaces module attributes
(and one method) with wrappers for the length of one round, then puts the
originals back.  Each target is patched where its callers look it up: a
function that another module imported by name is replaced in that module.

Every round captures the results of `explore` and `macro_explore`, so the
correctness checks can read counts and tiles the public verbs do not return.
That costs one extra call per exploration.  A timed round also records, for
every wrapped call, its duration and its self time (duration minus the time
of the wrapped calls directly beneath it), plus counts read off the results.
Calls made once per operation keep a span (name, start, end, parent); calls
made thousands of times per operation are only summed, so the trace stays
small.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


def _explore_counts(result):
    return {"atam.assemblies": len(result.assemblies), "atam.attachments": len(result.edges)}


def _macro_counts(result):
    return {
        "macro.explorations": 1,
        "macro.states": len(result.states),
        "macro.edges": len(result.edges),
    }


def _run_counts(run):
    return {"macro.run.events": len(run.events)}


def _frontier_counts(events):
    return {"macro.frontier.events": len(events)}


def _compile_counts(cs):
    return {"encoding.table_columns": len(cs.table.symbols)}


# (module, attribute, span name, keeps spans, captured, counts read off the result)
TARGETS = (
    ("encoding", "compile_system", "encoding.compile", True, False, _compile_counts),
    ("consistency", "verify_locally_consistent", "consistency.classify", True, False, None),
    ("consistency", "explore", "atam.explore", True, True, _explore_counts),
    ("verifier", "explore", "atam.explore", True, True, _explore_counts),
    ("verifier", "simulation_report", "verifier.report", True, False, None),
    ("verifier", "macro_explore", "macro.explore", True, True, _macro_counts),
    ("macro", "run_macro", "macro.run", True, False, _run_counts),
    ("verifier", "decode_assembly", "macro.decode", False, False, None),
    ("macro", "decode_assembly", "macro.decode", False, False, None),
    ("macro", "macro_frontier", "macro.frontier", False, False, _frontier_counts),
    ("macro", "trace_lookup", "lookup.trace", False, False, None),
    ("kernels", "sweep", "kernels.sweep", False, False, None),
    ("blocks.MacroAssembly", "with_block", "blocks.with_block", False, False, None),
)


class Probe:
    """Installs the wrappers for one round at a time and keeps what they saw."""

    def __init__(self, tw):
        self.tw = tw
        self.captured: dict[str, list] = defaultdict(list)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # (span name, name of the nearest enclosing span that keeps spans) -> calls, seconds
        self.within: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _owner(self, path: str):
        owner = self.tw
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    def install(self, timed: bool) -> None:
        if self._saved:
            raise RuntimeError("probe already installed")
        for path, attr, name, keeps, captured, tally in TARGETS:
            if not (timed or captured):
                continue
            owner = self._owner(path)
            original = getattr(owner, attr)
            if timed:
                wrapper = self._timed(original, name, keeps, captured, tally)
            else:
                wrapper = self._capturing(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def drain(self) -> dict[str, list]:
        """Every result captured since the last drain, by span name, oldest first."""
        captured = dict(self.captured)
        self.captured.clear()
        return captured

    def _capturing(self, fn, name):
        captured = self.captured

        def capture(*args, **kwargs):
            result = fn(*args, **kwargs)
            captured[name].append(result)
            return result

        return capture

    def _timed(self, fn, name, keeps, captured, tally):
        stack, probe = self._stack, self

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else -1
            enclosing = parent[2] if parent else ""
            span_id = len(probe.spans) if keeps else parent_span
            if keeps:
                probe.spans.append((name, 0.0, 0.0, parent_span))
            # seconds in wrapped calls beneath, span id, enclosing span name
            frame = [0.0, span_id, name if keeps else enclosing]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                probe.calls[name] += 1
                probe.total_s[name] += duration
                probe.self_s[name] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                slot = probe.within[(name, enclosing)]
                slot[0] += 1
                slot[1] += duration
                if keeps:
                    probe.spans[span_id] = (name, start, end, parent_span)
            if tally is not None:
                for key, value in tally(result).items():
                    probe.counts[key] += value
            if captured:
                probe.captured[name].append(result)
            return result

        return timed

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every timed round so far, as (value, unit)."""
        calls, total, own, counts = self.calls, self.total_s, self.self_s, self.counts
        lookups = calls["lookup.trace"]
        children = self.within[("blocks.with_block", "macro.explore")][0]
        # each finished exploration's start state is not a child of any event
        new_states = counts["macro.states"] - counts["macro.explorations"]
        return {
            "atam.explore.calls": (calls["atam.explore"], "count"),
            "atam.explore.s": (total["atam.explore"], "s"),
            "atam.assemblies": (counts["atam.assemblies"], "count"),
            "atam.attachments": (counts["atam.attachments"], "count"),
            "consistency.classify.s": (total["consistency.classify"], "s"),
            "consistency.self_s": (own["consistency.classify"], "s"),
            "encoding.compile.calls": (calls["encoding.compile"], "count"),
            "encoding.compile.s": (total["encoding.compile"], "s"),
            "encoding.lc_precheck.s": (
                self.within[("consistency.classify", "encoding.compile")][1],
                "s",
            ),
            "encoding.table_columns": (counts["encoding.table_columns"], "count"),
            "kernels.sweep.calls": (calls["kernels.sweep"], "count"),
            "kernels.sweep.s": (total["kernels.sweep"], "s"),
            "lookup.trace.calls": (lookups, "count"),
            "lookup.trace.s": (total["lookup.trace"], "s"),
            "lookup.sweep_hit_ratio": (
                1 - calls["kernels.sweep"] / lookups if lookups else 0.0,
                "ratio",
            ),
            "blocks.with_block.calls": (calls["blocks.with_block"], "count"),
            "blocks.with_block.s": (total["blocks.with_block"], "s"),
            "macro.frontier.calls": (calls["macro.frontier"], "count"),
            "macro.frontier.s": (total["macro.frontier"], "s"),
            "macro.frontier.events": (counts["macro.frontier.events"], "count"),
            "macro.run.s": (total["macro.run"], "s"),
            "macro.run.events": (counts["macro.run.events"], "count"),
            "macro.explore.s": (total["macro.explore"], "s"),
            "macro.states": (counts["macro.states"], "count"),
            "macro.edges": (counts["macro.edges"], "count"),
            "macro.new_state_ratio": (new_states / children if children else 0.0, "ratio"),
            "macro.decode.calls": (calls["macro.decode"], "count"),
            "macro.decode.s": (total["macro.decode"], "s"),
            "verifier.report.s": (total["verifier.report"], "s"),
            "verifier.self_s": (own["verifier.report"], "s"),
        }

    def trace_document(self) -> dict:
        """Everything the timed rounds recorded, for writing out at the end."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "within": {f"{n} < {p or '-'}": v for (n, p), v in self.within.items()},
        }
