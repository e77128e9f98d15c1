"""Rewrite the golden reports under tests/golden/ from the current code.

    PYTHONPATH=src python tests/regen_golden.py

It writes the report of every command on g1-g4 as `run(command,
text).render()`, which tests/test_golden.py and acceptance criterion 11
compare, and random7-suite.txt as `random_suite_text`, which
tests/test_checks.py compares.  Run it for a change of the report schema
made on purpose, and review the diff of tests/golden/.
"""

from kgraphs.checks import AnalysisConfig, run_suite
from kgraphs.cli import COMMANDS, run

from conftest import FIXTURES, GOLDEN
from randgraphs import make_random_skeletons


def random_suite_text(suites) -> str:
    """Every (name, status, detail) row of the suite of each
    make_random_skeletons(7) graph, under one header per graph."""
    rows = []
    for i, results in enumerate(suites):
        rows.append(f"# make_random_skeletons(7)[{i}]")
        rows += [f"{r.name}\t{r.status}\t{r.detail}".rstrip() for r in results]
    return "\n".join(rows) + "\n"


def main() -> None:
    for name in ("g1", "g2", "g3", "g4"):
        text = (FIXTURES / f"{name}.json").read_text()
        for command in COMMANDS:
            (GOLDEN / f"{name}-{command}.txt").write_text(run(command, text).render())
    suites = [run_suite(sk, AnalysisConfig()) for sk in make_random_skeletons(7)]
    (GOLDEN / "random7-suite.txt").write_text(random_suite_text(suites))


if __name__ == "__main__":
    main()
