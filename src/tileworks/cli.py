"""Command-line surface for the workbench.

Exit status contract: 0 on success, 1 when a requested check fails (local
consistency, simulation conditions, or a lookup that lands on a bare entry),
2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import consistency, corpus, lookup, macro, svg, tasio, verifier
from .atam import TileSystem, WorkbenchError, explore, is_terminal, sample_sequence
from .encoding import ClassError, CompiledSystem, compile_system, serialize_compiled
from .kernels import active_kernel_name

USAGE_ERROR = 2
CHECK_FAILED = 1


class _CliError(Exception):
    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


def _load_system(path_text: str) -> TileSystem:
    path = Path(path_text)
    if not path.exists() and path_text in corpus.GENERATORS:
        return corpus.GENERATORS[path_text]()
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}", USAGE_ERROR) from exc
    try:
        doc = tasio.parse_tas(text, name=path.stem)
    except tasio.TasParseError as exc:
        raise _CliError(f"{path}: {exc}", USAGE_ERROR) from exc
    return doc.system


def _compile(args, tas: TileSystem) -> CompiledSystem:
    try:
        return compile_system(
            tas,
            spacer=args.cprime,
            random_width=getattr(args, "bits_width", None),
            force=args.force,
            lc_bound=args.lc_bound,
        )
    except ClassError as exc:
        raise _CliError(
            f"{exc}\nre-run with --force to compile anyway", CHECK_FAILED
        ) from exc


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_compile_options(parser: argparse.ArgumentParser, with_bits: bool = True) -> None:
    parser.add_argument(
        "--cprime",
        type=_at_least(0),
        default=None,
        metavar="N",
        help="spacer zeros between the two pad fields of an edge (default: pad width)",
    )
    if with_bits:
        parser.add_argument(
            "--bits",
            dest="bits_width",
            type=_at_least(1),
            default=None,
            metavar="N",
            help="random bits drawn per probe (default: derived from entry multiplicity)",
        )
    parser.add_argument(
        "--force",
        action="store_true",
        help="skip the local-consistency precheck",
    )
    parser.add_argument(
        "--lc-bound",
        type=_at_least(1),
        default=12,
        metavar="N",
        help="assembly size bound for the consistency precheck (default: 12)",
    )


def _write_file(path_text: str, text: str) -> None:
    try:
        Path(path_text).write_text(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path_text}: {exc}", USAGE_ERROR) from exc


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, text)


def _cmd_run(args) -> int:
    tas = _load_system(args.system)
    seq = sample_sequence(tas, args.seed, args.max_steps)
    for i, (pos, tile) in enumerate(seq.steps, start=1):
        print(f"step {i}: {tas.tiles[tile].name} at {pos}")
    final = seq.result()
    state = "terminal" if is_terminal(tas, final) else "still growing"
    print(f"final assembly: {len(final)} tiles ({state})")
    return 0


def _cmd_explore(args) -> int:
    tas = _load_system(args.system)
    result = explore(tas, args.bound)
    terminals = result.terminal_keys()
    print(f"assemblies: {len(result.assemblies)}")
    print(f"attachments: {len(result.edges)}")
    print(f"terminal assemblies: {len(terminals)}")
    print(f"truncated at bound {args.bound}: {'yes' if result.truncated else 'no'}")
    for state_id in terminals:
        asm = result.states[state_id]
        cells = ", ".join(
            f"{tas.tiles[t].name}@{pos}" for pos, t in asm.sorted_items()
        )
        print(f"  terminal [{len(asm)} tiles]: {cells}")
    return 0


def _cmd_check_lc(args) -> int:
    tas = _load_system(args.system)
    verdict = consistency.verify_locally_consistent(tas, args.bound)
    print(f"locally consistent: {'yes' if verdict.passed else 'NO'}")
    print(verdict.note)
    if verdict.witness is not None:
        print(f"witness: {verdict.witness.describe()}")
    return 0 if verdict.passed else CHECK_FAILED


def _cmd_compile(args) -> int:
    tas = _load_system(args.system)
    cs = _compile(args, tas)
    _write_or_print(serialize_compiled(cs), args.out)
    if args.out is not None:
        print(
            f"compiled {len(tas.tiles)} tiles: {cs.entry_count} entries, "
            f"table length {len(cs.table.symbols)}, resolution {cs.resolution}"
        )
    return 0


def _cmd_lookup(args) -> int:
    tas = _load_system(args.system)
    cs = _compile(args, tas)
    try:
        outcome, rec = lookup.trace_lookup(cs, args.addr, args.bits)
    except lookup.EmptyEntryError as exc:
        print(f"lookup failed: {exc}")
        if args.trace and exc.trace is not None:
            print(lookup.render_trace(cs, args.addr, args.bits, exc.trace, limit=args.limit))
        return CHECK_FAILED
    except lookup.LookupError_ as exc:
        raise _CliError(f"lookup failed: {exc}", USAGE_ERROR) from exc
    chosen = cs.source.tiles[cs.addresses[args.addr].tiles[outcome.selected_index]].name
    print(
        f"address {args.addr}, bits {args.bits}: sub-entry "
        f"{outcome.selected_index} of {rec.n} -> {chosen}"
    )
    for pad in outcome.pads:
        print(f"  output {pad.direction.name}: {pad.glue}:{pad.strength}")
    if args.trace:
        print(lookup.render_trace(cs, args.addr, args.bits, rec, limit=args.limit))
    return 0


def _cmd_simulate(args) -> int:
    tas = _load_system(args.system)
    cs = _compile(args, tas)
    print(f"kernel: {active_kernel_name()}")
    run = macro.run_macro(cs, args.seed, max_events=args.max_events, bound=args.bound)
    for line in run.log:
        print(line)
    print(
        f"final: {len(run.final)} blocks after {len(run.events)} events"
        + (" (growth bounded)" if run.truncated else "")
    )
    decoded = macro.decode_assembly(run.final, cs)
    print(f"decoded assembly: {len(decoded)} tiles")
    if args.svg is not None:
        _write_file(args.svg, svg.render_svg(tas, decoded, scale=args.scale))
        print(f"wrote {args.svg}")
    return 0


def _cmd_verify(args) -> int:
    tas = _load_system(args.system)
    cs = _compile(args, tas)
    report = verifier.simulation_report(cs, args.bound)
    text = report.to_text()
    print(text, end="")
    if args.report is not None:
        _write_file(args.report, text)
    return 0 if report.passed else CHECK_FAILED


def _cmd_render(args) -> int:
    tas = _load_system(args.system)
    seq = sample_sequence(tas, args.seed, args.max_steps)
    _write_file(args.svg, svg.render_svg(tas, seq.result(), scale=args.scale))
    print(f"wrote {args.svg} ({len(seq.result())} tiles)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tileworks",
        description="temperature-2 tile assembly workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "system",
            help="a .tas file, or a built-in name "
            f"({', '.join(sorted(corpus.GENERATORS))})",
        )
        p.set_defaults(handler=handler)
        return p

    p = add("run", _cmd_run, "grow one random attachment sequence")
    p.add_argument("--seed", type=int, default=0, help="rng seed (default: 0)")
    p.add_argument(
        "--max-steps", type=_at_least(0), default=100, help="attachment cap (default: 100)"
    )

    p = add("explore", _cmd_explore, "enumerate producible assemblies up to a bound")
    p.add_argument("--bound", type=_at_least(1), default=8, help="max assembly size (default: 8)")

    p = add("check-lc", _cmd_check_lc, "check membership in the locally consistent class")
    p.add_argument(
        "--bound", type=_at_least(1), default=25, help="exploration bound (default: 25)"
    )

    p = add("compile", _cmd_compile, "encode a system into its lookup-table artifact")
    p.add_argument("--out", default=None, metavar="PATH", help="artifact path (default: stdout)")
    _add_compile_options(p)

    p = add("lookup", _cmd_lookup, "run one table lookup")
    p.add_argument("--addr", type=int, required=True, help="entry address value")
    p.add_argument("--bits", required=True, help="random bit string, e.g. 0110")
    p.add_argument("--trace", action="store_true", help="print the column-level sweep")
    p.add_argument(
        "--limit", type=_at_least(0), default=None, metavar="N",
        help="cap trace output at N columns",
    )
    _add_compile_options(p, with_bits=False)

    p = add("simulate", _cmd_simulate, "run the block-level simulation")
    p.add_argument("--seed", type=int, default=0, help="rng seed (default: 0)")
    p.add_argument(
        "--bound", type=_at_least(1), default=None, help="max block count (default: none)"
    )
    p.add_argument(
        "--max-events", type=_at_least(0), default=100_000, help="event cap (default: 100000)"
    )
    p.add_argument("--svg", default=None, metavar="PATH", help="write the decoded assembly as SVG")
    p.add_argument(
        "--scale", type=_at_least(1), default=48, help="SVG pixels per cell (default: 48)"
    )
    _add_compile_options(p)

    p = add("verify", _cmd_verify, "check the three simulation conditions")
    p.add_argument("--bound", type=_at_least(1), default=6, help="exploration bound (default: 6)")
    p.add_argument("--report", default=None, metavar="PATH", help="also write the report here")
    _add_compile_options(p)

    p = add("render", _cmd_render, "draw one sampled assembly as SVG")
    p.add_argument("--svg", required=True, metavar="PATH", help="output path")
    p.add_argument("--seed", type=int, default=0, help="rng seed (default: 0)")
    p.add_argument(
        "--max-steps", type=_at_least(0), default=100, help="attachment cap (default: 100)"
    )
    p.add_argument(
        "--scale", type=_at_least(1), default=48, help="SVG pixels per cell (default: 48)"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.status
    except WorkbenchError as exc:
        # domain failures surfacing from forced compiles and the like
        print(str(exc), file=sys.stderr)
        return CHECK_FAILED
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
