"""Counts, vertex matrices, enumeration and sampling at degrees far beyond
the interpreter's recursion limit, each against an independent closed form."""

import json
import random

import pytest

from kgraphs.cli import run
from kgraphs.core import count_morphisms, enumerate_morphisms, sample_morphism
from kgraphs.errors import DegreeMismatch
from kgraphs.spectral import vertex_matrix

from conftest import FIXTURES


def test_golden_mean_count_at_degree_2000(g2):
    # paths of length n in the golden mean graph number F(n + 3)
    a, b = 1, 1
    for _ in range(2000 + 1):
        a, b = b, a + b
    assert count_morphisms(g2, (2000,)) == b


def test_full_two_shift_matrix_at_degree_3000(g1):
    assert vertex_matrix(g1, (3000,)).entries == ((2**3000,),)


def test_flip_two_graph_count_at_degree_250_250(g3):
    assert count_morphisms(g3, (250, 250)) == 2**500


def test_one_point_graph_enumerates_and_samples_at_degree_1500_1500(g4):
    (only,) = enumerate_morphisms(g4, (1500, 1500))
    assert only.degree == (1500, 1500) and len(only.word) == 3000
    assert sample_morphism(g4, (1500, 1500), random.Random(0)) == only


def test_spectral_command_at_radius_600_is_inconclusive():
    doc = json.loads((FIXTURES / "g2.json").read_text())
    doc["config"] = {"radius": 600}
    report = run("spectral", json.dumps(doc))
    assert report.exit_code == 0, report.violations
    assert report.results["aperiodicity"]["result"] == "inconclusive"


@pytest.mark.parametrize(
    "call",
    [
        lambda sk: count_morphisms(sk, (-1, 2)),
        lambda sk: enumerate_morphisms(sk, (0, -1)),
        lambda sk: sample_morphism(sk, (-1, 0), random.Random(0)),
        lambda sk: vertex_matrix(sk, (2, -3)),
    ],
)
def test_negative_degrees_are_rejected(g3, call):
    with pytest.raises(DegreeMismatch):
        call(g3)


@pytest.mark.parametrize(
    "call",
    [
        lambda sk: count_morphisms(sk, (1,)),
        lambda sk: enumerate_morphisms(sk, (1, 1, 1)),
        lambda sk: sample_morphism(sk, (2,), random.Random(0)),
        lambda sk: vertex_matrix(sk, (1, 2, 3)),
    ],
)
def test_wrong_length_degrees_are_rejected(g3, call):
    with pytest.raises(ValueError):
        call(g3)
