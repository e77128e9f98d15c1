"""Document parsing, report rendering, exit codes, determinism."""

import hashlib
import itertools
import json
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphs import core
from kgraphs.checks import AnalysisConfig
from kgraphs.cli import (
    _CONFIG_RULES,
    COMMANDS,
    main,
    parse_document,
    parse_spec,
    render_value,
    run,
)
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


#: per config key: its flag, a good value other than the default, a bad value
_SETTINGS = {
    "tol": ("--tol", 1e-9, 0),
    "bound": ("--bound", 3, 0),
    "radius": ("--radius", 1, 1.5),
    "metric_r": ("--metric-r", 0.25, 1),
    "seed": ("--seed", 7, "x"),
}


def test_each_setting_is_one_field_one_flag_and_one_config_key(g3_text, tmp_path, capsys):
    keys = list(_CONFIG_RULES)
    assert keys == [f.name for f in fields(AnalysisConfig)] == list(_SETTINGS)
    assert list(run("validate", g3_text).config) == keys
    spec = tmp_path / "g3.json"
    spec.write_text(g3_text)
    for key, (flag, good, bad) in _SETTINGS.items():
        assert good != getattr(AnalysisConfig(), key)
        assert main(["--spec", str(spec), "--command", "validate", flag, str(good)]) == 0
        assert json.loads(capsys.readouterr().out)["config"][key] == good, key
        doc = json.loads(g3_text)
        doc["config"] = {key: bad}
        through_doc = run("validate", json.dumps(doc)).violations
        assert through_doc == run("validate", g3_text, {key: bad}).violations, key
        [violation] = through_doc
        assert violation["kind"] == "input"
        assert violation["detail"].startswith(f"config.{key}: must be "), violation


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


# ---------------------------------------------------------------------------
# digests (hashlib is the oracle; the library uses the built-in module)
# ---------------------------------------------------------------------------


def _reference_skeleton_digest(sk) -> str:
    # the presentation's pieces fed one by one, as the digest is defined
    h = hashlib.sha256()

    def put(piece: str) -> None:
        h.update(piece.encode("utf-8", "surrogatepass"))

    put(str(sk.k))
    for v in sorted(sk.vertices):
        put("v" + v)
    for e in sorted(sk.edges, key=lambda e: e.id):
        put(f"e{e.id},{e.color},{e.range},{e.source}")
    for r in sorted(sk.squares, key=lambda r: (r.pair, r.left)):
        put(f"s{r.pair}{r.left}{r.right}")
    return h.hexdigest()


_NON_ASCII = json.dumps(
    {
        "k": 1,
        "vertices": ["ü", "顶"],
        "edges": [
            {"id": "é", "color": 0, "range": "ü", "source": "顶"},
            {"id": "ß", "color": 0, "range": "顶", "source": "ü"},
        ],
    },
    ensure_ascii=False,
)
# ASCII text whose JSON escapes parse to lone surrogates, which the strict
# UTF-8 codec refuses
_SURROGATE_IDS = json.dumps(
    {
        "k": 1,
        "vertices": ["\udcff"],
        "edges": [{"id": "\ud800", "color": 0, "range": "\udcff", "source": "\udcff"}],
    }
)


def test_digests_equal_sha256_of_the_same_bytes(fixture_graphs):
    texts = {name: (FIXTURES / f"{name}.json").read_text() for name in fixture_graphs}
    texts.update(non_ascii=_NON_ASCII, surrogate_ids=_SURROGATE_IDS)
    for name, text in texts.items():
        report = run("dynamics", text)
        assert report.exit_code == 0, (name, report.violations)
        assert report.digest == hashlib.sha256(text.encode("utf-8")).hexdigest(), name
        sk = parse_spec(text)
        assert sk.digest() == _reference_skeleton_digest(sk), name
    assert parse_spec(_SURROGATE_IDS).vertices == ("\udcff",)


def test_text_with_a_lone_surrogate_ends_in_a_structured_report():
    # a str can hold a lone surrogate that no file read as UTF-8 yields;
    # it hashes as its "surrogatepass" bytes and the run ends as usual
    g1_text = (FIXTURES / "g1.json").read_text()
    cases = {
        '{"k": 1, "vertices": ["\udcff"], "edges": []}': 1,  # the vertex has no edges
        g1_text + "\udcff": 2,  # not JSON
        g1_text.replace('"v"', '"v\udcff"'): 0,
    }
    for text, code in cases.items():
        for command in COMMANDS:
            report = run(command, text)
            assert report.exit_code == code, (text, command, report.violations)
            expected = hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()
            assert report.digest == expected
            assert report.render() == run(command, text).render()


# ---------------------------------------------------------------------------
# the CLI boundary: one line on stderr and exit 2, never a traceback
# ---------------------------------------------------------------------------


def test_main_exits_2_on_a_spec_that_is_not_utf8(tmp_path, capsys):
    spec = tmp_path / "latin1.json"
    spec.write_bytes(b'{"k": 1, "vertices": ["\xff"], "edges": []}')
    assert main(["--spec", str(spec), "--command", "validate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot read spec:") and captured.err.count("\n") == 1


def test_main_exits_2_when_the_report_cannot_be_written(tmp_path, capsys):
    out = tmp_path / "missing" / "report.txt"
    args = ["--spec", str(FIXTURES / "g1.json"), "--command", "validate", "--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert not out.parent.exists()
    assert captured.err.startswith("cannot write report:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("squares", [5, True, 1.5, "ab", {"pair": [0, 1]}, None])
def test_main_exits_2_on_squares_that_are_not_an_array(tmp_path, capsys, squares):
    doc = json.loads((FIXTURES / "g1.json").read_text())
    doc["squares"] = squares
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["--spec", str(spec), "--command", "spectral"]) == 2
    assert '"detail": "squares: must be an array"' in capsys.readouterr().out


def test_main_validates_a_rank_1000_document_without_visiting_edgeless_pairs(
    tmp_path, capsys, monkeypatch
):
    visited = []
    check = core._check_square_pair

    def counting(sk, i, j, table, out):
        visited.append((i, j))
        return check(sk, i, j, table, out)

    monkeypatch.setattr(core, "_check_square_pair", counting)
    spec = tmp_path / "rank1000.json"
    spec.write_text(json.dumps({"k": 1000, "vertices": ["v"], "edges": []}))
    assert main(["--spec", str(spec), "--command", "validate"]) == 1
    assert visited == []
    assert '"code": "standing-assumption-source"' in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fuzzing: wrongly typed and malformed documents, every command
# ---------------------------------------------------------------------------

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1, 3)
    | st.floats()
    | st.sampled_from(["", "v", "e0", "\udcff"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "pair", "x"]), inner, max_size=2),
    max_leaves=4,
)


def _slots(value):
    """Every (container, key) below value, the value itself excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in list(items):
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def _documents(draw):
    """A small well-typed document (k <= 4, <= 4 edges, <= 3 squares, config
    values of any JSON type) with up to two fields replaced by any JSON value
    or dropped; now and then the whole document is any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    k = draw(st.integers(1, 4))
    vertices = draw(
        st.lists(st.sampled_from(["v", "w", "é", "\udcff"]), min_size=1, max_size=3, unique=True)
    )
    edges = [
        {
            "id": f"e{i}",
            "color": draw(st.integers(0, k - 1)),
            "range": draw(st.sampled_from(vertices)),
            "source": draw(st.sampled_from(vertices)),
        }
        for i in range(draw(st.integers(0, 4)))
    ]
    # square entries name edges of their pair's colors where there are any
    of_color = [[e["id"] for e in edges if e["color"] == c] or ["e0"] for c in range(k)]
    squares = []
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.sampled_from([(0, 1), *itertools.combinations(range(k), 2)]))
        lower, upper = st.sampled_from(of_color[i]), st.sampled_from(of_color[j % k])
        left, right = [draw(lower), draw(upper)], [draw(upper), draw(lower)]
        squares.append({"pair": [i, j], "left": left, "right": right})
    doc = {"k": k, "vertices": vertices, "edges": edges, "squares": squares}
    if draw(st.booleans()):
        keys = st.sampled_from(["tol", "bound", "radius", "metric_r", "seed", "depth"])
        doc["config"] = draw(st.dictionaries(keys, _JSON, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_JSON)
    return doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_documents())
def test_every_command_ends_in_an_exit_code_on_malformed_documents(doc):
    text = json.dumps(doc)
    for command in COMMANDS:
        report = run(command, text)
        assert report.exit_code in (0, 1, 2)
        assert report.render() == run(command, text).render()
