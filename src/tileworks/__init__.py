"""tileworks: a workbench for temperature-2 tile self-assembly.

Simulate tile systems, check membership in the locally consistent class,
compile members into a binary glue lookup table, run the table lookup and
the block-level macro simulation it drives, and verify at desk scale that
the simulation tracks the source system.
"""

from .atam import (
    TEMPERATURE,
    Assembly,
    AssemblySequence,
    Direction,
    Pad,
    SidePad,
    TileSystem,
    TileType,
    WorkbenchError,
    attach,
    binding_strength,
    explore,
    frontier,
    is_terminal,
    sample_sequence,
    seed_assembly,
)
from .consistency import Verdict, Witness, replay_witness, verify_locally_consistent
from .corpus import GENERATORS, counter, elbow, nondet_elbow, sierpinski
from .encoding import (
    Address,
    ClassError,
    CompiledSystem,
    GlueOrdering,
    address_of,
    build_table,
    compile_system,
    decode_pad,
    edge_string,
    encode_pad,
    serialize_compiled,
)
from .lookup import (
    LookupOutcome,
    direct_lookup,
    render_trace,
    selection_counts,
    trace_lookup,
)
from .macro import (
    MacroRun,
    ThreeProbeError,
    decode_assembly,
    decode_block,
    macro_explore,
    run_macro,
    seed_macro,
)
from .verifier import SimulationReport, simulation_report

# `render_svg` and the `.tas` reader and writer load on first use: none of the
# library calls behind `check-lc`, `simulate` and `verify` needs them
_LAZY = {"render_svg": "svg", "TasParseError": "tasio", "format_tas": "tasio", "parse_tas": "tasio"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "TEMPERATURE",
    "Address",
    "Assembly",
    "AssemblySequence",
    "ClassError",
    "CompiledSystem",
    "Direction",
    "GENERATORS",
    "GlueOrdering",
    "LookupOutcome",
    "MacroRun",
    "Pad",
    "SidePad",
    "SimulationReport",
    "TasParseError",
    "ThreeProbeError",
    "TileSystem",
    "TileType",
    "Verdict",
    "Witness",
    "WorkbenchError",
    "address_of",
    "attach",
    "binding_strength",
    "build_table",
    "compile_system",
    "counter",
    "decode_assembly",
    "decode_block",
    "decode_pad",
    "direct_lookup",
    "edge_string",
    "elbow",
    "encode_pad",
    "explore",
    "format_tas",
    "frontier",
    "is_terminal",
    "macro_explore",
    "nondet_elbow",
    "parse_tas",
    "render_svg",
    "render_trace",
    "replay_witness",
    "run_macro",
    "sample_sequence",
    "seed_assembly",
    "seed_macro",
    "selection_counts",
    "serialize_compiled",
    "sierpinski",
    "simulation_report",
    "trace_lookup",
    "verify_locally_consistent",
]
