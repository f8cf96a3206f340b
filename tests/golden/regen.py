"""Golden CLI outputs: the commands, how each is captured, and a regenerator.

Each `*.txt` file in this directory holds what one command printed: its exit
status, its stdout and stderr, and the text of every file it wrote.
`tests/test_golden.py` runs every command in process and compares.

Regenerate the files from the repository root, after a change that alters
default output on purpose:

    PYTHONPATH=src python -m tests.golden.regen
"""

from __future__ import annotations

import io
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tileworks.cli import main

from ..conftest import COMPILABLE

HERE = Path(__file__).resolve().parent

COMMANDS = (
    *(
        command
        for name in COMPILABLE
        for command in (f"verify {name} --bound 6", f"explore {name} --bound 8", f"compile {name}")
    ),
    # seeded transcripts; the sierpinski run has 409 probes, some in flight at once
    "simulate nondet_elbow --seed 3",
    "simulate sierpinski --seed 3 --max-events 2000",
    "simulate counter4 --seed 1 --max-events 300 --bound 6",
    "run sierpinski --seed 4 --max-steps 1500",
    # the README's examples, less `verify nondet_elbow --bound 6`, which is above
    "run elbow --seed 3",
    "explore elbow --bound 6",
    "check-lc counter4 --bound 25",
    "compile elbow --out elbow.txt",
    "lookup elbow --addr 15 --bits 0 --trace",
    "simulate elbow --seed 1",
    "render sierpinski --svg s.svg --max-steps 60",
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
        golden_file(command).write_text(capture(command))
        print(golden_file(command).name, file=sys.stderr)
