from __future__ import annotations

import pytest

from tileworks import corpus
from tileworks.encoding import compile_system

# the built-ins that pass check-lc
COMPILABLE = tuple(name for name in corpus.GENERATORS if corpus.NAMED[name][1] == "pass")

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
    return corpus.lone_seed()
