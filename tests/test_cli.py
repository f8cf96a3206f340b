from __future__ import annotations

import hashlib
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


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_outputs() -> dict[str, str]:
    """Each fenced output in README.md, keyed by the quoted command that introduces it."""
    pattern = r"`([^`\n]+)`(?: prints)?:\n\n```\n(.*?)```\n"
    return dict(re.findall(pattern, README.read_text(), re.S))


@pytest.mark.parametrize("command", ("explore elbow --bound 6", "verify nondet_elbow --bound 6"))
def test_readme_example_output_is_exact(command, capsys):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == _readme_outputs()[command]


# the sha256 of each command's stdout on the compilable corpus, pinned so
# that a change to how sides, pads or cell maps are held changes no output
STDOUT_DIGESTS = {
    "verify elbow --bound 6": "c71e7abf14faab0caecffd7acf592c190bee1228e6e20f83b8de11ff04679e6e",
    "explore elbow --bound 8": "ba22d4c10efa0364326a7cd757b68bee2f933a3aaab0b294a41dd137c1d35450",
    "verify nondet_elbow --bound 6": "13d3fb89fa8efea7b7b504b791971e64124920c438d2e67a751ca2c813211e63",
    "explore nondet_elbow --bound 8": "1b01322cad6ab1c5f2b052467c8862007a72da107290b176dbc232fa6bc32a4c",
    "verify counter3 --bound 6": "454bd85d4835d62434a3e5cc4f9a29c89243d0f23aaddfba9eb26d806e96b06f",
    "explore counter3 --bound 8": "bbca3d27e8caa9b9e46b28b5e9317deb5a6bcb49395757484c8e2b76b962a9ed",
    "verify counter4 --bound 6": "388c80d0cd2664d7f52cec9713694cd5f4ae9576e9895b188634fb10d50caed5",
    "explore counter4 --bound 8": "bbca3d27e8caa9b9e46b28b5e9317deb5a6bcb49395757484c8e2b76b962a9ed",
    "verify sierpinski --bound 6": "0568824e99a30515466ff2f7e082225049f1a2c6b3d90572a96350bc5b4b776c",
    "explore sierpinski --bound 8": "c77477f6aa8ea912c791bdaf52ac82e72225255b05daa0c78772375833eda172",
}


@pytest.mark.parametrize("command", STDOUT_DIGESTS)
def test_stdout_matches_its_pinned_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[command]


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


def test_check_lc_pass_and_fail(capsys):
    assert main(["check-lc", "elbow", "--bound", "12"]) == 0
    assert "locally consistent: yes" in capsys.readouterr().out
    assert main(["check-lc", "elbow_mismatch", "--bound", "12"]) == 1
    out = capsys.readouterr().out
    assert "locally consistent: NO" in out
    assert "witness:" in out


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


def test_compile_rejects_inconsistent_system(capsys):
    assert main(["compile", "elbow_bad_sum"]) == 1
    err = capsys.readouterr().err
    assert "not locally consistent" in err
    assert "--force" in err


def test_compile_force_overrides(tmp_path, capsys):
    out = tmp_path / "forced.txt"
    assert main(["compile", "elbow_bad_sum", "--force", "--out", str(out)]) == 0
    assert out.exists()


def test_missing_file_is_usage_error(capsys):
    assert main(["explore", "no/such/file.tas"]) == 2
    assert "cannot read" in capsys.readouterr().err


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


def test_lookup_known_address(capsys):
    assert main(["lookup", "elbow", "--addr", "15", "--bits", "0"]) == 0
    out = capsys.readouterr().out
    assert "-> tR" in out
    assert "output N: c:1" in out


def test_lookup_trace_render(capsys):
    assert main(["lookup", "elbow", "--addr", "15", "--bits", "0", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "addr=15 bits=0 n=1 m=1933 p=0 selected_index=0" in out


def test_lookup_bare_entry_fails_check(capsys):
    # address 0 exists in every table but holds no sub-entries
    assert main(["lookup", "elbow", "--addr", "0", "--bits", "0"]) == 1
    assert "lookup failed" in capsys.readouterr().out


def test_lookup_bare_entry_trace(capsys):
    # the trace comes from the sweep record the bare-entry error carries
    assert main(["lookup", "elbow", "--addr", "0", "--bits", "0", "--trace"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("lookup failed")
    assert lines[1] == "addr=0 bits=0 n=0 m=1948 p=-1 selected_index=-1"
    assert any(line.endswith("match entries=1") for line in lines)


def test_lookup_out_of_range_is_usage_error(capsys):
    assert main(["lookup", "elbow", "--addr", "99999", "--bits", "0"]) == 2
    assert "lookup failed" in capsys.readouterr().err


def test_simulate_decodes_growth(capsys):
    assert main(["simulate", "elbow", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kernel: ")
    assert "decoded assembly: 4 tiles" in out
    assert "final: 4 blocks" in out


def test_simulate_writes_svg(tmp_path, capsys):
    target = tmp_path / "macro.svg"
    code = main(["simulate", "elbow", "--seed", "1", "--svg", str(target)])
    assert code == 0
    assert target.read_text().startswith("<svg ")


def test_verify_pass_writes_report(tmp_path, lone_seed, capsys):
    lone = tmp_path / "lone.tas"
    lone.write_text(format_tas(lone_seed))
    for system in ("elbow", str(lone)):
        report = tmp_path / "report.txt"
        code = main(["verify", system, "--bound", "6", "--report", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.endswith("overall: PASS\n")
        assert report.read_text() == out


def test_verify_nondet_passes(capsys):
    assert main(["verify", "nondet_elbow", "--bound", "6"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_render_writes_svg(tmp_path, capsys):
    target = tmp_path / "grown.svg"
    code = main(
        ["render", "sierpinski", "--svg", str(target), "--seed", "5", "--max-steps", "30"]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    assert target.read_text().count('class="cell"') == 31  # seed + 30 steps


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.svg"
    assert main(["render", "elbow", "--svg", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err


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
