from __future__ import annotations

from collections import Counter

import tileworks


def test_every_export_resolves_once():
    assert not [name for name, n in Counter(tileworks.__all__).items() if n > 1]
    assert [name for name in tileworks.__all__ if not hasattr(tileworks, name)] == []


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from tileworks import *", namespace)
    assert set(tileworks.__all__) <= namespace.keys()
