"""The battery checks fail when what they test is broken.

Each test swaps a wrong variant of a window operation into `kgraphs.checks`
and asserts that the check reports `fail`, so the class-reduced and hoisted
sweeps keep the power of the pair-by-pair loops they replace.
"""

from kgraphs import checks
from kgraphs.core import (
    Skeleton,
    SquareRule,
    _from_normal_word,
    _normalize_word,
    opposite_graph,
    validate_skeleton,
)
from kgraphs.dynamics import bracket, shift
from kgraphs.errors import NotBracketable

CFG = checks.AnalysisConfig()


def test_bracket_axioms_catch_a_bracket_that_returns_y(g3, monkeypatch):
    monkeypatch.setattr(checks, "bracket", lambda x, y: y)
    assert checks.check_bracket_axioms(g3, CFG).status == "fail"


def test_bracket_axioms_catch_a_bracket_wrong_only_on_shifted_windows(g3, monkeypatch):
    # right on the radius-N windows of the first two parts, so only the
    # shift-commutation sweep sees it
    def wrong(x, y):
        return y if x.N < CFG.radius else bracket(x, y)

    monkeypatch.setattr(checks, "bracket", wrong)
    result = checks.check_bracket_axioms(g3, CFG)
    assert result.status == "fail"
    assert "commute" in result.detail


def test_bracket_axioms_catch_a_shift_that_moves_the_wrong_way(g3, monkeypatch):
    monkeypatch.setattr(checks, "shift", lambda w, m: shift(w, tuple(-c for c in m)))
    assert checks.check_bracket_axioms(g3, CFG).status == "fail"


def test_expansiveness_catches_a_shift_that_drops_a_coordinate(g3, monkeypatch):
    monkeypatch.setattr(checks, "shift", lambda w, m: shift(w, tuple(m[:-1]) + (0,)))
    result = checks.check_expansiveness(g3, CFG)
    assert result.status == "fail"
    assert "never separated" in result.detail


def test_opposite_involution_catches_a_wrong_opposite_square_table(random_skeletons, monkeypatch):
    # a valid opposite graph whose squares are not the transported ones:
    # validity and the transposed vertex matrices cannot tell
    flip = random_skeletons[2]
    op = opposite_graph(flip)
    rights = [r.right for r in op.squares]
    rotated = rights[1:] + rights[:1]
    squares = tuple(SquareRule(r.pair, r.left, right) for r, right in zip(op.squares, rotated))
    bad = Skeleton(op.k, op.vertices, op.edges, squares)
    assert validate_skeleton(bad).ok

    def wrong(mu):
        target = bad if mu.skeleton is flip else flip
        word = _normalize_word(target, list(reversed(mu.word)))
        return _from_normal_word(target, word, mu.source, mu.range)

    assert checks.check_opposite_involution(flip, CFG).status == "pass"
    monkeypatch.setattr(checks, "opposite_morphism", wrong)
    result = checks.check_opposite_involution(flip, CFG)
    assert result.status == "fail"
    assert result.detail.startswith("op(op(")


def test_run_suite_names_a_raising_check_by_its_report_name(g3, monkeypatch):
    def raises(x, y):
        raise NotBracketable("no bracket today")

    monkeypatch.setattr(checks, "ALL_CHECKS", (checks.check_bracket_axioms,))
    monkeypatch.setattr(checks, "bracket", raises)
    results = checks.run_suite(g3, CFG)
    assert [(r.name, r.status) for r in results] == [
        ("skeleton-valid", "pass"),
        ("bracket-axioms", "fail"),
    ]
    assert results[1].detail == "NotBracketable: no bracket today"
