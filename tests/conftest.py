from __future__ import annotations

import pytest

from tileworks import corpus
from tileworks.atam import TileSystem, TileType
from tileworks.encoding import compile_system

COMPILABLE = ("elbow", "nondet_elbow", "counter3", "counter4", "sierpinski")
FAULTY = ("elbow_bad_sum", "elbow_mismatch")

# one line per acceptance criterion, echoed after the run so capture
# cannot swallow them
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def line(n: int) -> TileSystem:
    """A seed and n-1 tiles in a row eastward, each bound by a strength-2 glue
    of its own: n tiles and n-1 glue labels."""
    tiles = [TileType.make("t0", e=("g1", 2))]
    tiles += [TileType.make(f"t{i}", w=(f"g{i}", 2), e=(f"g{i + 1}", 2)) for i in range(1, n - 1)]
    tiles.append(TileType.make(f"t{n - 1}", w=(f"g{n - 1}", 2)))
    return TileSystem(tuple(tiles), seed=0, name=f"line{n}")


def pascal(k: int) -> TileSystem:
    """`corpus.sierpinski` with XOR replaced by the sum mod k: Pascal's triangle
    mod k, with k*k + 3 tiles and 2k + 2 glue labels."""
    tiles = [
        TileType.make("seed", e=("br", 2), n=("bc", 2)),
        TileType.make("r", w=("br", 2), e=("br", 2), n=("v1", 1)),
        TileType.make("c", s=("bc", 2), n=("bc", 2), e=("h1", 1)),
    ]
    for b in range(k):
        for c in range(k):
            out = (b + c) % k
            tiles.append(
                TileType.make(
                    f"x{b}_{c}", s=(f"v{b}", 1), w=(f"h{c}", 1), n=(f"v{out}", 1), e=(f"h{out}", 1)
                )
            )
    return TileSystem(tuple(tiles), seed=0, name=f"pascal{k}")


@pytest.fixture(scope="session")
def systems():
    return {name: gen() for name, gen in corpus.GENERATORS.items()}


@pytest.fixture(scope="session")
def compiled(systems):
    """One compiled form per well-behaved corpus system, shared by all tests."""
    return {name: compile_system(systems[name]) for name in COMPILABLE}


@pytest.fixture(scope="session")
def lone_seed():
    """A locally consistent system where nothing attaches: its table has no entries."""
    return TileSystem((TileType.make("seed", e=("a", 1)),), seed=0, name="lone_seed")
