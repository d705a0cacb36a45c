from __future__ import annotations

from pathlib import Path

import pytest

from udgl import Instance, parse_file

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def neighbours(problem, u: int) -> dict[int, int]:
    """Node u's row of problem.adjacency (CSR columns) as {neighbour id: squared edge length}."""
    start, nbrs, d2s = problem.adjacency
    return dict(zip(nbrs[start[u]:start[u + 1]], d2s[start[u]:start[u + 1]]))


def load_fixture(name: str) -> Instance:
    obj = parse_file((FIXTURE_DIR / name).read_bytes())
    assert isinstance(obj, Instance)
    return obj


@pytest.fixture
def fixture_f1() -> Instance:
    return load_fixture("fixture_f1.udgl")


@pytest.fixture
def fixture_f2() -> Instance:
    return load_fixture("fixture_f2.udgl")
