"""Byte identity of the rendered reports of every command on g1-g4 with the
default config against tests/golden/.  The suite reports are compared in
acceptance criterion 11, which runs them anyway.  A change to the report
schema made on purpose regenerates the files with
`PYTHONPATH=src python tests/regen_golden.py`."""

import pytest

from kgraphs.cli import COMMANDS, run

from conftest import FIXTURES, golden_report


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "suite"])
@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4"])
def test_report_matches_golden(name, command):
    text = (FIXTURES / f"{name}.json").read_text()
    assert run(command, text).render() == golden_report(name, command)
