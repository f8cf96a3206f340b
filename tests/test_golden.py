"""Every CLI output the workbench pins, byte for byte, against the files in
`tests/golden/` (regenerated by `tests/golden/regen.py`): the one pin of what
the verbs print and write."""

from __future__ import annotations

import difflib

import pytest

from .golden.regen import COMMANDS, HERE, capture, golden_file

DIFF_LINES, DIFF_WIDTH = 60, 200


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_its_golden_file(command):
    want = golden_file(command).read_text()
    got = capture(command)
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(True), got.splitlines(True), golden_file(command).name, "now"
        )
        lines = [line[:DIFF_WIDTH].rstrip("\n") for line in diff]
        pytest.fail("\n".join(lines[:DIFF_LINES]), pytrace=False)


def test_each_file_belongs_to_one_command():
    # a renamed or dropped command leaves no stale file, and no two commands
    # write the same one
    files = [golden_file(command) for command in COMMANDS]
    assert len(set(files)) == len(COMMANDS)
    assert set(HERE.glob("*.txt")) == set(files)
