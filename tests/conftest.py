from pathlib import Path

import pytest

from kgraphs.checks import AnalysisConfig, CheckResult, run_suite
from kgraphs.cli import parse_spec
from kgraphs.core import ColoredEdge, Skeleton, SquareRule

from randgraphs import make_random_skeletons

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load_fixture(name: str) -> Skeleton:
    return parse_spec((FIXTURES / f"{name}.json").read_text())


def schoolbook_product(a, b):
    """a b by the definition, entry by entry: the tests' reference for the
    library's matrix products."""
    n, m = len(b), len(b[0])
    return tuple(
        tuple(sum(row[i] * b[i][j] for i in range(n)) for j in range(m)) for row in a
    )


def golden_report(name: str, command: str) -> str:
    """The rendered report of `command` on fixture `name` with the default
    config, as checked in under tests/golden/."""
    return (GOLDEN / f"{name}-{command}.txt").read_text()


@pytest.fixture(scope="session")
def g1() -> Skeleton:
    """Two loops on one vertex: the full 2-shift."""
    return load_fixture("g1")


@pytest.fixture(scope="session")
def g2() -> Skeleton:
    """The Fibonacci (golden mean) shift."""
    return load_fixture("g2")


@pytest.fixture(scope="session")
def g3() -> Skeleton:
    """2-graph with two loops per color and flip squares b_i r_j = r_j b_i."""
    return load_fixture("g3")


@pytest.fixture(scope="session")
def g4() -> Skeleton:
    """One edge per color: a one-point path space."""
    return load_fixture("g4")


@pytest.fixture(scope="session")
def g5_periodic() -> Skeleton:
    """2-graph with squares b_i r_j = r_i b_j; every path has period (1,-1)."""
    blues = [ColoredEdge(f"b{i}", 0, "v", "v") for i in (1, 2)]
    reds = [ColoredEdge(f"r{i}", 1, "v", "v") for i in (1, 2)]
    squares = tuple(
        SquareRule((0, 1), (f"b{i}", f"r{j}"), (f"r{i}", f"b{j}"))
        for i in (1, 2)
        for j in (1, 2)
    )
    return Skeleton(2, ("v",), tuple(blues + reds), squares)


@pytest.fixture(scope="session")
def fixture_graphs(g1, g2, g3, g4) -> dict[str, Skeleton]:
    return {"g1": g1, "g2": g2, "g3": g3, "g4": g4}


@pytest.fixture(scope="session")
def random_skeletons() -> list[Skeleton]:
    return make_random_skeletons(seed=7)


@pytest.fixture(scope="session")
def random_suites(random_skeletons) -> list[list[CheckResult]]:
    """The `run_suite` results on each random skeleton, default config; the
    rank-3 suite is the slowest in tier-1, so it runs once per session."""
    return [run_suite(sk, AnalysisConfig()) for sk in random_skeletons]


@pytest.fixture(scope="session")
def test_graphs(fixture_graphs, random_skeletons) -> list[Skeleton]:
    return list(fixture_graphs.values()) + random_skeletons
