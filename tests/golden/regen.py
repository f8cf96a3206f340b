"""Golden CLI outputs: the commands, how each is captured, and a regenerator.

Each `*.txt` file in this directory holds what one command printed: its exit
status, its stdout and stderr, and the text of every file it wrote.
`tests/test_golden.py` runs every command in process and compares.

Regenerate the files from the repository root, after a change that alters
default output on purpose:

    PYTHONPATH=src python -m tests.golden.regen

It rewrites only the files whose text changed and prints each one, then
prints each `*.txt` file that no command names, for the change to delete.
"""

from __future__ import annotations

import io
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tileworks import corpus
from tileworks.cli import main

from ..conftest import COMPILABLE

HERE = Path(__file__).resolve().parent

COMMANDS = (
    # the byte-identity list: the outputs every refactor must keep
    *(
        command
        for name in COMPILABLE
        for command in (
            *(f"verify {name} --bound {bound}" for bound in range(3, 9)),
            f"explore {name} --bound 8",
            f"compile {name}",
            f"run {name}",
            f"run {name} --seed 3 --max-steps 300",
        )
    ),
    *(f"check-lc {name} --bound {bound}" for name in corpus.GENERATORS for bound in (10, 25)),
    *(f"verify nondet_elbow --bits {bits}" for bits in (1, 2, 4, 8)),
    # seeded transcripts: the elbows' runs end by themselves, the others are capped
    *(f"simulate {name} --seed {seed}" for name in ("elbow", "nondet_elbow") for seed in range(3)),
    *(
        f"simulate {name} --seed {seed} --max-events 1000"
        for name in ("counter3", "counter4", "sierpinski")
        for seed in range(3)
    ),
    # longer transcripts; the sierpinski run has 409 probes, some in flight at once
    "simulate nondet_elbow --seed 3",
    "simulate sierpinski --seed 3 --max-events 2000",
    "simulate counter4 --seed 1 --max-events 300 --bound 6",
    "run sierpinski --seed 4 --max-steps 1500",
    # the README's examples, less those above
    "run elbow --seed 3",
    "explore elbow --bound 6",
    "compile elbow --out elbow.txt",
    "lookup elbow --addr 15 --bits 0 --trace",
    "render sierpinski --svg s.svg --max-steps 60",
    # lookups: a hit, a bare entry (address 0 holds no sub-entries) with and
    # without its trace, a long trace, an address out of range, malformed bits
    "lookup elbow --addr 15 --bits 0",
    "lookup elbow --addr 0 --bits 0",
    "lookup elbow --addr 0 --bits 0 --trace --limit 400",
    "lookup nondet_elbow --addr 1948 --bits 1 --trace --limit 400",
    "lookup elbow --addr 99999 --bits 0",
    "lookup elbow --addr 15 --bits 2",
    # refusals, and the files the verbs write
    "compile elbow_bad_sum",
    "compile elbow_bad_sum --force --out forced.txt",
    "explore no/such/file.tas",
    "verify elbow --bound 6 --report report.txt",
    "simulate elbow --seed 1 --svg macro.svg",
    "render sierpinski --svg grown.svg --seed 5 --max-steps 30",
    "render elbow --svg missing/out.svg",
)


def golden_file(command: str) -> Path:
    return HERE / (re.sub(r"[^A-Za-z0-9_]+", "-", command) + ".txt")


def capture(command: str) -> str:
    """Run `command` through `cli.main` in an empty working directory, and
    render its exit status, stdout, stderr and written files as one text."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                status = main(command.split())
            written = [(p.name, p.read_text()) for p in sorted(Path(work).iterdir())]
        finally:
            os.chdir(home)
    parts = [f"$ tileworks {command}\nexit {status}\n", "--- stdout\n", out.getvalue()]
    parts += ["--- stderr\n", err.getvalue()]
    for name, text in written:
        parts += [f"--- file {name}\n", text]
    return "".join(parts)


if __name__ == "__main__":
    for command in COMMANDS:
        path, text = golden_file(command), capture(command)
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
            print(f"rewrote {path.name}")
    named = {golden_file(command) for command in COMMANDS}
    for path in sorted(HERE.glob("*.txt")):
        if path not in named:
            print(f"no command names {path.name}")
