from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tileworks
from tileworks import corpus
from tileworks.cli import main
from tileworks.tasio import format_tas

from .golden.regen import golden_file


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_outputs() -> dict[str, str]:
    """Each fenced output in README.md, keyed by the quoted command that introduces it."""
    pattern = r"`([^`\n]+)`(?: prints)?:\n\n```\n(.*?)```\n"
    return dict(re.findall(pattern, README.read_text(), re.S))


@pytest.mark.parametrize("command", ("explore elbow --bound 6", "verify nondet_elbow --bound 6"))
def test_readme_example_output_is_exact(command, capsys):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == _readme_outputs()[command]


# each command's stdout on the compilable corpus, pinned by its golden file so
# that a change to how sides, pads or cell maps are held changes no output
PINNED_STDOUT_COMMANDS = tuple(
    f"{verb} {name} --bound {bound}"
    for name in ("elbow", "nondet_elbow", "counter3", "counter4", "sierpinski")
    for verb, bound in (("verify", 6), ("explore", 8))
)


@pytest.mark.parametrize("command", PINNED_STDOUT_COMMANDS)
def test_stdout_matches_its_pinned_digest(command, capsys):
    assert main(command.split()) == 0
    golden = golden_file(command).read_text()
    want = golden.partition("--- stdout\n")[2].partition("--- stderr\n")[0]
    assert capsys.readouterr().out == want


HASH_SEED_COMMANDS = (
    "simulate counter4 --seed 3 --max-events 3000",
    "run sierpinski --seed 2 --max-steps 300",
    "verify sierpinski --bound 6",
    "verify nondet_elbow --bound 6",
    "check-lc elbow_mismatch",
    "explore nondet_elbow --bound 8",
)


def test_output_does_not_depend_on_the_hash_seed():
    # str hashes, and with them the order of any set of strings, change with
    # PYTHONHASHSEED; what the CLI prints must not
    script = (
        "import sys\n"
        "from tileworks.cli import main\n"
        "for command in sys.argv[1:]:\n"
        "    print('$', command)\n"
        "    print('exit', main(command.split()))\n"
    )
    src = str(Path(tileworks.__file__).parents[1])
    outputs = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-c", script, *HASH_SEED_COMMANDS],
            capture_output=True, text=True, check=True, env=env,
        )
        outputs.append(done.stdout)
    assert outputs[0].count("$ ") == len(HASH_SEED_COMMANDS)
    assert outputs[0] == outputs[1]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "tileworks" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate", "elbow"]) == 2


@pytest.mark.parametrize(
    "command, message",
    (
        ("explore elbow --bound 0", "--bound: must be at least 1, got 0"),
        ("check-lc elbow --bound 0", "--bound: must be at least 1, got 0"),
        ("verify elbow --bound 0", "--bound: must be at least 1, got 0"),
        ("verify elbow --lc-bound 0", "--lc-bound: must be at least 1, got 0"),
        ("compile elbow --lc-bound -3", "--lc-bound: must be at least 1, got -3"),
        ("compile elbow --cprime -40", "--cprime: must be at least 0, got -40"),
        ("explore elbow --bound x", "--bound: invalid int value: 'x'"),
        ("compile elbow --bits 0", "--bits: must be at least 1, got 0"),
        ("compile elbow --bits -1", "--bits: must be at least 1, got -1"),
        ("simulate elbow --bound 0", "--bound: must be at least 1, got 0"),
        ("simulate elbow --max-events -1", "--max-events: must be at least 0, got -1"),
        ("run elbow --max-steps -3", "--max-steps: must be at least 0, got -3"),
        ("render elbow --svg x.svg --max-steps -1", "--max-steps: must be at least 0, got -1"),
        ("render elbow --svg x.svg --scale 0", "--scale: must be at least 1, got 0"),
        ("simulate elbow --scale -4", "--scale: must be at least 1, got -4"),
        ("lookup elbow --addr 15 --bits 0 --limit -5", "--limit: must be at least 0, got -5"),
    ),
)
def test_bad_bounds_are_usage_errors(command, message, capsys):
    assert main(command.split()) == 2
    assert message in capsys.readouterr().err


def test_explore_builtin_name(capsys):
    assert main(["explore", "elbow", "--bound", "6"]) == 0
    out = capsys.readouterr().out
    assert "assemblies: 5" in out
    assert "terminal assemblies: 1" in out
    assert "truncated at bound 6: no" in out
    assert "tD@(1, 1)" in out


def test_explore_file_path(tmp_path, capsys):
    path = tmp_path / "elbow.tas"
    path.write_text(format_tas(corpus.elbow()))
    assert main(["explore", str(path), "--bound", "6"]) == 0
    assert "assemblies: 5" in capsys.readouterr().out


def test_run_reports_terminal(capsys):
    assert main(["run", "elbow", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "step 1:" in out
    assert "final assembly: 4 tiles (terminal)" in out


def test_compile_artifact_is_reproducible(tmp_path, capsys):
    one, two = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["compile", "elbow", "--out", str(one)]) == 0
    assert main(["compile", "elbow", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    assert "entries" in capsys.readouterr().out
    text = one.read_text()
    assert text.startswith("tileworks compiled system v1\n")
    assert "resolution 15944" in text


def test_compile_to_stdout(capsys):
    assert main(["compile", "elbow"]) == 0
    assert "GLUES" in capsys.readouterr().out


def test_undecodable_file_is_usage_error(tmp_path, capsys):
    binary = tmp_path / "bin.tas"
    binary.write_bytes(bytes(range(128, 256)))  # no valid UTF-8 sequence
    assert main(["explore", str(binary)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_parse_error_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.tas"
    bad.write_text("tile t N=g:9 E=-:0 S=-:0 W=-:0\nseed t\n")
    assert main(["explore", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_lookup_trace_render(capsys):
    assert main(["lookup", "elbow", "--addr", "15", "--bits", "0", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "addr=15 bits=0 n=1 m=1933 p=0 selected_index=0" in out


def test_simulate_decodes_growth(capsys):
    assert main(["simulate", "elbow", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kernel: ")
    assert "decoded assembly: 4 tiles" in out
    assert "final: 4 blocks" in out


def test_verify_pass_writes_report(tmp_path, lone_seed, capsys):
    # a system read from a file; the golden files pin a built-in's report
    lone = tmp_path / "lone.tas"
    lone.write_text(format_tas(lone_seed))
    report = tmp_path / "report.txt"
    assert main(["verify", str(lone), "--bound", "6", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("overall: PASS\n")
    assert report.read_text() == out


def test_verify_nondet_passes(capsys):
    assert main(["verify", "nondet_elbow", "--bound", "6"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_three_input_growth_fails_cleanly(tmp_path, capsys):
    # three strength-1 pads converge on (1,1).  The system passes check-lc
    # and compiles unforced, yet verify dies in the macro engine, with a
    # domain error rather than a traceback.  This pins the open three-pad
    # defect of ROADMAP item 5: a fix turns the expected outcome into a PASS
    path = tmp_path / "three.tas"
    path.write_text(format_tas(corpus.three_probe_north()))
    code = main(["verify", str(path), "--bound", "8"])
    assert code == 1
    assert "third input pad" in capsys.readouterr().err
