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
