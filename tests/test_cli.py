"""Document parsing, report rendering, exit codes, determinism."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphs.cli import main, parse_document, parse_spec, render_value, run
from kgraphs.errors import MalformedSkeleton, ParseError

from conftest import FIXTURES
from randgraphs import document, make_random_skeletons, random_1graph, random_flip_2graph


@pytest.fixture(scope="module")
def g3_text():
    return (FIXTURES / "g3.json").read_text()


def test_parse_g3_roundtrip(g3_text, g3):
    sk = parse_spec(g3_text)
    assert sk == g3
    assert len(sk.vertices) == 1 and len(sk.edges) == 4 and len(sk.squares) == 4


def test_parse_reports_json_location():
    with pytest.raises(ParseError, match=r"line \d+, column \d+"):
        parse_spec('{"k": 1,,}')


def test_parse_rejects_missing_edge_reference(g3_text):
    doc = json.loads(g3_text)
    doc["squares"][0]["left"] = ["b1", "missing"]
    with pytest.raises(MalformedSkeleton, match="missing"):
        parse_spec(json.dumps(doc))


def test_parse_rejects_empty_vertices():
    doc = {"k": 1, "vertices": [], "edges": []}
    with pytest.raises(MalformedSkeleton, match="empty"):
        parse_spec(json.dumps(doc))


def test_parse_locates_bad_fields(g3_text):
    doc = json.loads(g3_text)
    doc["edges"][2]["color"] = "red"
    with pytest.raises(MalformedSkeleton, match=r"edges\[2\]\.color"):
        parse_spec(json.dumps(doc))


def test_parse_rejects_unknown_config_keys(g3_text):
    doc = json.loads(g3_text)
    doc["config"] = {"tolerance": 1e-9}
    with pytest.raises(MalformedSkeleton, match="tolerance"):
        parse_spec(json.dumps(doc))


def test_config_merging(g3_text):
    doc = json.loads(g3_text)
    doc["config"] = {"seed": 3, "radius": 1}
    sk, cfg = parse_document(json.dumps(doc))
    report = run("validate", json.dumps(doc), {"radius": 2})
    assert report.config["seed"] == 3
    assert report.config["radius"] == 2  # flag wins over the file


def test_render_floats_use_12_significant_digits():
    out = render_value({"x": 1.6180339887498949, "n": 3, "flag": True})
    assert '"x": 1.61803398875' in out
    assert '"n": 3' in out and '"flag": true' in out


def test_run_spectral_reports_golden_ratio(g3_text):
    text = (FIXTURES / "g2.json").read_text()
    report = run("spectral", text)
    assert report.exit_code == 0
    rendered = report.render()
    assert "1.61803398875" in rendered
    assert "0.850650808352" in rendered and "0.525731112119" in rendered


def test_run_validate_reports_violations_with_exit_1(g3_text):
    doc = json.loads(g3_text)
    doc["squares"][1]["right"] = ["r1", "b1"]  # duplicates squares[0]'s target
    report = run("validate", json.dumps(doc))
    assert report.exit_code == 1
    assert any(v["code"] == "square-not-injective" for v in report.violations)


def test_run_parse_failure_exits_2():
    report = run("validate", "not json")
    assert report.exit_code == 2
    assert report.violations[0]["kind"] == "input"


def test_run_unknown_command_exits_2(g3_text):
    assert run("dance", g3_text).exit_code == 2


def test_non_validate_commands_refuse_invalid_skeletons(g3_text):
    doc = json.loads(g3_text)
    doc["squares"] = doc["squares"][:3]
    report = run("spectral", json.dumps(doc))
    assert report.exit_code == 1
    assert any(v["code"] == "square-missing" for v in report.violations)


def test_reports_are_deterministic(g3_text):
    a = run("suite", g3_text, {"radius": 1}).render()
    b = run("suite", g3_text, {"radius": 1}).render()
    assert a == b


def test_dynamics_and_relations_reports(g3_text):
    for command in ("dynamics", "relations", "enumerate", "measure"):
        report = run(command, g3_text, {"radius": 1})
        assert report.exit_code == 0, report.violations
        assert report.results


def test_main_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(
        [
            "--spec",
            str(FIXTURES / "g1.json"),
            "--command",
            "validate",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    body = out.read_text()
    assert '"command": "validate"' in body
    err = capsys.readouterr().err
    assert "elapsed" in err


def test_main_propagates_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["--spec", str(bad), "--command", "validate"]) == 2
    assert main(["--spec", str(tmp_path / "nope.json"), "--command", "validate"]) == 2


def test_report_digest_tracks_document(g3_text):
    a = run("validate", g3_text)
    b = run("validate", g3_text + "\n")
    assert a.digest != b.digest


def test_spectral_flags_reducible_graph():
    doc = {
        "k": 1,
        "vertices": ["u", "v"],
        "edges": [
            {"id": "lu", "color": 0, "range": "u", "source": "u"},
            {"id": "lv", "color": 0, "range": "v", "source": "v"},
        ],
        "squares": [],
    }
    report = run("spectral", json.dumps(doc))
    assert report.exit_code == 1
    assert any(v["code"] == "not-irreducible" for v in report.violations)
    assert report.results["connectivity"]["irreducible"] is False


def test_suite_passes_on_random_skeletons(random_suites):
    for results in random_suites:
        fails = [r for r in results if r.failed]
        assert not fails, [(r.name, r.detail) for r in fails]


def _set(path, value):
    def mutate(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value

    return mutate


@pytest.mark.parametrize(
    "name, mutate, overrides",
    [
        ("g3", _set(("config",), {"metric_r": 2}), None),
        ("g3", _set(("config",), {"tol": "x"}), None),
        ("g3", _set(("config",), {"tol": 0}), None),
        ("g3", _set(("config",), {"radius": 0}), None),
        ("g3", _set(("config",), {"radius": 1.5}), None),
        ("g3", _set(("config",), {"bound": True}), None),
        ("g3", _set(("config",), {"seed": False}), None),
        ("g1", _set(("k",), True), None),
        ("g3", _set(("edges", 0, "color"), False), None),
        ("g3", _set(("squares", 0, "pair"), [False, True]), None),
        ("g3", _set(("config",), {}), {"radius": 0}),
        ("g3", _set(("config",), {}), {"metric_r": 1.0}),
    ],
)
def test_bad_inputs_are_input_violations(name, mutate, overrides):
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    mutate(doc)
    report = run("dynamics", json.dumps(doc), overrides)
    assert report.exit_code == 2
    assert [v["kind"] for v in report.violations] == ["input"]


def test_spectral_reports_a_stalled_power_iteration():
    # r40 once stalled a power iteration on a positive combination of
    # spectral radius ~2.4e4, where an absolute residual of 1e-12 lies below
    # float64 resolution; both the spectral report and the whole suite pass
    text = document(random_1graph(random.Random(40), 40, 40))
    for command in ("spectral", "suite"):
        report = run(command, text)
        assert report.exit_code == 0, (command, report.render())


_RNG = st.randoms(use_true_random=False)
_GRAPHS = st.one_of(
    st.builds(random_1graph, _RNG, st.integers(1, 6), st.integers(0, 6)),
    st.builds(random_flip_2graph, _RNG, st.integers(1, 3), st.integers(1, 3)),
    st.builds(
        lambda seed, i: make_random_skeletons(seed)[i], st.integers(0, 10**6), st.integers(0, 4)
    ),
)


@settings(max_examples=100, deadline=None)
@given(_GRAPHS, st.integers(1, 500))
def test_spectral_ends_in_an_exit_code_and_reruns_byte_identically(sk, bound):
    text = document(sk)
    report = run("spectral", text, {"bound": bound})
    assert report.exit_code in (0, 1, 2)
    assert report.render() == run("spectral", text, {"bound": bound}).render()
