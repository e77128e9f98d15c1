"""Tests of the benchmark's oracles, inputs and tracing, on hand-computed cases."""

import json
import math
import random
import time
from pathlib import Path

import pytest

import inputs
import oracles
import tracing
import workloads

REPO = Path(__file__).resolve().parent.parent


# -- oracles -----------------------------------------------------------------


def test_matrix_count_is_fibonacci():
    # golden mean shift: 2 vertices, 3 edges, then 5, 8, 13 paths
    assert [oracles.matrix_count(((1, 1), (1, 0)), n) for n in range(5)] == [2, 3, 5, 8, 13]


def test_mat_pow_by_squaring():
    assert oracles.mat_pow([[1, 1], [1, 0]], 10) == [[89, 55], [55, 34]]
    assert oracles.mat_pow([[2, 0], [0, 3]], 0) == [[1, 0], [0, 1]]


def test_vertex_matrix_of_commuting_generators():
    gens = inputs.generator_matrices(inputs.fixture("g3").doc)
    assert gens == [[[2]], [[2]]]
    assert oracles.vertex_matrix(gens, (3, 2)) == [[32]]


@pytest.mark.parametrize(
    "name, degree, count",
    [("g1", (3,), 8), ("g2", (3,), 8), ("g3", (1, 2), 8), ("g4", (5, 7), 1)],
)
def test_fixture_closed_forms(name, degree, count):
    assert inputs.fixture(name).count(degree) == count


def test_product_counts():
    prod = inputs.product("p", inputs.fixture("g1"), inputs.fixture("g2"))
    assert prod.count((1, 1)) == 2 * 3
    assert prod.count((2, 3)) == 4 * 8


def test_spectral_radius_and_perron_check():
    phi = (1 + math.sqrt(5)) / 2
    assert oracles.close(oracles.spectral_radius([[1, 1], [1, 0]]), phi)
    gens = [[[1, 1], [1, 0]]]
    a = b = {"u": 1 / math.sqrt(2), "v": 1 / math.sqrt(2)}
    assert oracles.check_perron([phi], a, b, gens) == []
    assert len(oracles.check_perron([1.6], a, b, gens)) == 1
    assert len(oracles.check_perron([phi], a, {"u": 1.0, "v": 1.0}, gens)) == 1


def test_check_masses():
    assert oracles.check_masses([0.25, 0.75]) == []
    assert oracles.check_masses([0.25, 0.7]) != []
    assert oracles.check_masses([0.5, 0.5], 1.0 + 1e-12) == []


def test_check_suite():
    ok = {"checks": [{"name": "a", "status": "pass"}, {"name": "b", "status": "skip"}]}
    assert oracles.check_suite(ok, 0) == []
    assert oracles.check_suite(ok, 1) != []
    bad = {"checks": [{"name": "a", "status": "fail"}]}
    assert oracles.check_suite(bad, 0) != []


def test_bracket_word_on_a_one_graph():
    doc = inputs.fixture("g2").doc
    x = ["uu", "uu", "uv", "vu"]
    y = ["uv", "vu", "uu", "uv"]
    assert oracles.bracket_word(doc, x, y, 2) == ["uu", "uu", "uu", "uv"]
    assert oracles.origin(doc, x, 2) == "u"
    assert oracles.origin(doc, y, 2) == "v"


def test_bracket_word_on_g3_agrees_with_the_program():
    from kgraphs import bracket, make_morphism, make_window
    from kgraphs.cli import parse_spec

    g = inputs.fixture("g3")
    x = ["b1", "b2", "b1", "b1", "r2", "r2", "r1", "r1"]
    y = ["b2", "b2", "b2", "b2", "r1", "r1", "r1", "r1"]
    want = ["b1", "b2", "b2", "b2", "r2", "r2", "r1", "r1"]
    assert oracles.bracket_word(g.doc, x, y, 2) == want
    sk = parse_spec(g.text)
    wx, wy = (make_window(sk, make_morphism(sk, w), 2) for w in (x, y))
    assert list(bracket(wx, wy).body.word) == want


# -- inputs ------------------------------------------------------------------


def test_fixture_copies_match_the_repository():
    for name in inputs.FIXTURE_COUNTS:
        frozen = json.loads((inputs.INPUTS / f"{name}.json").read_text())
        assert frozen == json.loads((REPO / "fixtures" / f"{name}.json").read_text())


def test_inputs_follow_the_seed():
    texts = lambda seed: [g.text for g in inputs.session_graphs(seed)]  # noqa: E731
    assert texts(5) == texts(5)
    assert texts(5) != texts(6)
    calls = lambda seed: inputs.session_calls(seed, inputs.session_graphs(seed))  # noqa: E731
    assert calls(5) == calls(5)
    assert calls(5) != calls(6)
    assert len(calls(5)) == len(calls(6))
    assert calls(5)[:3] == list(inputs.DEEP_CALLS)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_graphs_are_valid_with_the_closed_form_counts(seed):
    from kgraphs import count_morphisms, validate_skeleton
    from kgraphs.cli import parse_spec

    for g in inputs.session_graphs(seed)[:4]:
        sk = parse_spec(g.text)
        assert validate_skeleton(sk).ok, g.name
        for p in oracles.box((2,) * sk.k):
            assert count_morphisms(sk, p) == g.count(p), (g.name, p)


def test_random_walk_chains():
    doc = inputs.session_graphs(3)[2].doc
    word = inputs.random_walk(random.Random(1), doc, 30)
    edge = {e["id"]: e for e in doc["edges"]}
    assert all(edge[a]["source"] == edge[b]["range"] for a, b in zip(word, word[1:]))


# -- tracing -----------------------------------------------------------------


def _bindings():
    import sys

    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "kgraphs"
        for attr, value in vars(mod).items()
        if callable(value) or attr == "ALL_CHECKS"
    }


def test_tracer_counts_and_restores():
    from kgraphs import cli, dynamics

    text = inputs.fixture("g4").text
    before = cli.run("suite", text).render()
    bindings = _bindings()
    extract = dynamics.Window.extract
    with tracing.Tracer() as tracer:
        assert cli.run is not bindings[("kgraphs.cli", "run")]
        start = time.perf_counter()
        traced = cli.run("suite", text).render()
        elapsed = time.perf_counter() - start
        tracer.end_round()
        values = tracer.take()
    assert traced == before
    assert _bindings() == bindings
    assert dynamics.Window.extract is extract
    assert cli.run("suite", text).render() == before
    names = [name for name, _ in tracing.metric_names()]
    assert list(values) == names
    assert values["cli.run.calls"] == 1
    assert values["cli.parse_document.calls"] == 1
    assert values["core.memo_entries"] > 0
    assert all(values[f"checks.{name}.s"] > 0 for name in tracing.CHECK_NAMES)
    # the self times of nested calls add up to the outermost call's duration
    total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert 0.5 * elapsed < total <= elapsed


def test_check_names_match_the_battery():
    from kgraphs.checks import run_suite, AnalysisConfig
    from kgraphs.cli import parse_spec

    results = run_suite(parse_spec(inputs.fixture("g4").text), AnalysisConfig())
    assert tuple(r.name for r in results[1:]) == tracing.CHECK_NAMES


def test_session_round_passes_its_checks():
    failed = []
    for op in workloads.build("library-session", 0):
        try:
            problems = op.call()()
        except RecursionError:
            failed.append(op.name)
            continue
        assert problems == [], op.name
    assert len(failed) <= len(inputs.DEEP_CALLS)
