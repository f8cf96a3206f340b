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
    # they load on first use; the calls behind check-lc, simulate and verify need neither
    code = (
        "import sys, tileworks\n"
        "print(sorted(m for m in ('tileworks.svg', 'tileworks.tasio') if m in sys.modules))\n"
        "tileworks.parse_tas\n"
        "print(sorted(m for m in ('tileworks.svg', 'tileworks.tasio') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tileworks.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split("\n")[:2] == ["[]", "['tileworks.tasio']"]
