"""Every default output the workbench pins, byte for byte, against the files
in `tests/golden/` (regenerated by `tests/golden/regen.py`)."""

from __future__ import annotations

import difflib

import pytest

from .golden.regen import COMMANDS, capture, golden_file

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
