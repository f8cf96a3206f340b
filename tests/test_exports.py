from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import tileworks


def test_every_export_resolves_once():
    assert not [name for name, n in Counter(tileworks.__all__).items() if n > 1]
    assert [name for name in tileworks.__all__ if not hasattr(tileworks, name)] == []


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from tileworks import *", namespace)
    assert set(tileworks.__all__) <= namespace.keys()


def test_import_leaves_svg_and_tasio_unloaded():
    # they load on first use; the calls behind check-lc, simulate and verify,
    # and those CLI verbs on a built-in system, need neither
    code = (
        "import contextlib, io, sys, tileworks\n"
        "from tileworks.cli import main\n"
        "def loaded():\n"
        "    print(sorted(m for m in ('tileworks.svg', 'tileworks.tasio') if m in sys.modules))\n"
        "loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['check-lc', 'elbow']) == 0\n"
        "loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', 'elbow', '--bound', '3']) == 0\n"
        "loaded()\n"
        "tileworks.parse_tas\n"
        "loaded()"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tileworks.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split("\n")[:4] == ["[]", "[]", "[]", "['tileworks.tasio']"]
