"""The battery checks fail when what they test is broken.

Each test swaps a wrong variant of a window operation or measure evaluator
into `kgraphs.checks`, of a relation's box into `kgraphs.relations`, or of
the word rewriting into `kgraphs.core`, and asserts that the check reports
`fail`, so the class-reduced, hoisted and reduced checks keep the power of
the loops they replace.  The partition tests behind the relation checks
are compared with their W x W matrix definitions, and the pairs of
windows that the metric checks measure with their all-pairs definitions.
"""

import ast
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphs import checks, core, relations
from kgraphs import degrees as dv
from kgraphs.core import (
    ColoredEdge,
    Skeleton,
    SquareRule,
    _from_normal_word,
    _normalize_word,
    combine,
    compose,
    count_morphisms,
    enumerate_morphisms,
    make_morphism,
    opposite_graph,
    subblock,
    validate_skeleton,
)
from kgraphs.dynamics import (
    DistanceResult,
    MetricParams,
    Window,
    _block_tokens,
    all_windows,
    bracket,
    distance,
    shift,
)
from kgraphs.errors import NotBracketable, NotConverged
from kgraphs.measure import conditional_measure, haar_weight, parry_measure
from kgraphs.relations import _stable_classes, restriction_map
from kgraphs.spectral import perron_data, vertex_matrix

from conftest import FIXTURES, GOLDEN
from oracle import assert_matches_oracle
from randgraphs import random_1graph, random_flip_2graph
from regen_golden import random_suite_text
from test_counting import _non_commuting
from test_spectral import P36, R40

CFG = checks.AnalysisConfig()


def test_bracket_axioms_catch_a_bracket_that_returns_y(g3, monkeypatch):
    monkeypatch.setattr(checks, "bracket", lambda x, y: y)
    assert checks.check_bracket_axioms(checks.Suite(g3, CFG)).status == "fail"


def test_bracket_axioms_catch_a_bracket_wrong_only_on_shifted_windows(g3, monkeypatch):
    # right on the radius-N windows of the first two parts, so only the
    # shift-commutation sweep sees it
    def wrong(x, y):
        return y if x.N < CFG.radius else bracket(x, y)

    monkeypatch.setattr(checks, "bracket", wrong)
    result = checks.check_bracket_axioms(checks.Suite(g3, CFG))
    assert result.status == "fail"
    assert "commute" in result.detail


def test_bracket_axioms_catch_a_shift_that_moves_the_wrong_way(g3, monkeypatch):
    monkeypatch.setattr(checks, "shift", lambda w, m: shift(w, tuple(-c for c in m)))
    assert checks.check_bracket_axioms(checks.Suite(g3, CFG)).status == "fail"


def test_bracket_axioms_catch_a_bracket_with_the_right_key_on_another_grid(g3, monkeypatch):
    # the key is right, so only a read of the grid (the body) sees it
    def wrong(x, y):
        z = bracket(x, y)
        return Window._of(z.skeleton, z.N, z.key, y._cells())

    monkeypatch.setattr(checks, "bracket", wrong)
    result = checks.check_bracket_axioms(checks.Suite(g3, CFG))
    assert result.status == "fail"
    assert "commute" not in result.detail


def test_bracket_axioms_catch_a_bracket_wrong_on_one_class(g3, monkeypatch):
    # on g3 each (past, future) class holds one radius-N window
    windows = all_windows(g3, CFG.radius)
    target = windows[len(windows) // 2]

    def wrong(x, y):
        z = bracket(x, y)
        return windows[0] if z == target else z

    monkeypatch.setattr(checks, "bracket", wrong)
    result = checks.check_bracket_axioms(checks.Suite(g3, CFG))
    assert result.status == "fail"
    assert "glued" in result.detail


def test_semigroup_law_catches_binary_powers_wrong_only_past_3e(g3, monkeypatch):
    # a pairwise sweep over [0, 3e] never forms these degrees
    def wrong(sk, p):
        vm = vertex_matrix(sk, p)
        if max(p) < 4:
            return vm
        return replace(vm, entries=tuple(tuple(x + 1 for x in row) for row in vm.entries))

    monkeypatch.setattr(checks, "vertex_matrix", wrong)
    assert checks.check_semigroup_law(checks.Suite(g3, CFG)).status == "fail"


def test_generator_commutation_catches_generators_that_do_not_commute():
    # |L^(e1+e0)| = M_0 M_1 = 0 but |L^e1||L^e0| = M_1 M_0 != 0: the pairwise
    # law fails, and semigroup-law leaves it to this check
    odd = _non_commuting()
    result = checks.check_generator_commutation(checks.Suite(odd, CFG))
    assert result.status == "fail"


def test_expansiveness_catches_a_shift_that_drops_a_coordinate(g3, monkeypatch):
    monkeypatch.setattr(checks, "shift", lambda w, m: shift(w, tuple(m[:-1]) + (0,)))
    result = checks.check_expansiveness(checks.Suite(g3, CFG))
    assert result.status == "fail"
    assert "never separated" in result.detail


def _distance_wrong_on(pair, result):
    """distance, except that it returns ``result`` on the one unordered pair
    of windows ``pair``."""

    def wrong(x, y, params=MetricParams()):
        return result if {x, y} == pair else distance(x, y, params)

    return wrong


def test_expansiveness_catches_a_distance_wrong_on_one_pair_of_shifted_windows(g3, monkeypatch):
    # windows 0 and j that one pair of distinct shifted windows separates
    # (under one or more shifts): a distance that calls that pair
    # indistinguishable leaves them never separated
    windows = all_windows(g3, CFG.radius)
    shifts = list(dv.box((-1, -1), (1, 1)))
    moved = [[shift(w, m) for m in shifts] for w in windows]
    for j in range(1, len(windows)):
        apart = {
            frozenset((a, b))
            for a, b in zip(moved[0], moved[j])
            if distance(a, b).rho >= CFG.metric_r
        }
        if len(apart) == 1:
            break
    (pair,) = apart
    assert checks.check_expansiveness(checks.Suite(g3, CFG)).status == "pass"
    blind = DistanceResult(h=math.inf, rho=0.0, indistinguishable=True)
    monkeypatch.setattr(checks, "distance", _distance_wrong_on(pair, blind))
    result = checks.check_expansiveness(checks.Suite(g3, CFG))
    assert (result.status, result.detail) == (
        "fail",
        f"{windows[0]!r} and {windows[j]!r} are never separated",
    )


def test_contraction_catches_a_distance_wrong_on_one_pair_of_shifted_windows(g1, monkeypatch):
    # at radius 2 the shifted windows of a fiber are all equal, so radius 3:
    # sigma^e of two windows with one future still differ at x(-1, 0)
    cfg = replace(CFG, radius=3)
    windows = all_windows(g1, cfg.radius)
    y = windows[0]
    z = next(w for w in windows[1:] if w.future == y.future and shift(w, (1,)) != shift(y, (1,)))
    pair = frozenset((shift(y, (1,)), shift(z, (1,))))
    assert checks.check_contraction(checks.Suite(g1, cfg)).status == "pass"
    far = DistanceResult(h=0, rho=1.0, indistinguishable=False)
    monkeypatch.setattr(checks, "distance", _distance_wrong_on(pair, far))
    result = checks.check_contraction(checks.Suite(g1, cfg))
    assert result.status == "fail"
    assert result.detail.startswith("contraction fails at j=1")


def _pairs_read(check, sk, cfg, monkeypatch):
    """The unordered pairs of windows that ``check`` passes to
    ``checks.distance``, with the number of calls on each."""
    read = Counter()

    def recording(x, y, params=MetricParams()):
        read[frozenset((x, y))] += 1
        return distance(x, y, params)

    with monkeypatch.context() as patch:
        patch.setattr(checks, "distance", recording)
        assert check(checks.Suite(sk, cfg)).status == "pass"
    return read


@pytest.mark.parametrize("name, radius", [("g1", 3), ("g2", 3), ("g3", 2)])
def test_metric_checks_read_each_pair_of_the_all_pairs_definitions_once(
    name, radius, request, monkeypatch
):
    # the all-pairs definitions read, per shifted sweep, the pairs of
    # distinct shifted windows of every pair of windows still open
    # (expansiveness) or in one fiber (contraction); the class-reduced
    # checks must read the same set, each pair once per sweep
    sk = request.getfixturevalue(name)
    cfg = replace(CFG, radius=radius)
    windows = all_windows(sk, radius)
    expanding = Counter()
    open_ = {(i, j) for i in range(len(windows)) for j in range(i + 1, len(windows))}
    for m in dv.box(dv.scaled(1 - radius, sk.k), dv.scaled(radius - 1, sk.k)):
        moved = [shift(w, m) for w in windows]
        sweep = {frozenset((moved[i], moved[j])) for i, j in open_ if moved[i] != moved[j]}
        expanding.update(sweep)
        apart = {pair for pair in sweep if distance(*pair).rho >= cfg.metric_r}
        open_ = {(i, j) for i, j in open_ if frozenset((moved[i], moved[j])) not in apart}
        if not open_:
            break
    contracting = Counter()
    half = sk.k * radius
    for cut, sign in ((slice(half, None), 1), (slice(None, half), -1)):
        fiber_pairs = [
            (y, z) for i, y in enumerate(windows) for z in windows[i + 1 :] if y.key[cut] == z.key[cut]
        ]
        contracting.update({frozenset(pair) for pair in fiber_pairs})
        for j in range(1, radius):
            moved = {w: shift(w, dv.scaled(sign * j, sk.k)) for w in windows}
            contracting.update(
                {frozenset((moved[y], moved[z])) for y, z in fiber_pairs if moved[y] != moved[z]}
            )
    assert _pairs_read(checks.check_expansiveness, sk, cfg, monkeypatch) == expanding
    assert _pairs_read(checks.check_contraction, sk, cfg, monkeypatch) == contracting
    calls = {"g1": 744, "g2": 221, "g3": 4120}[name]
    assert sum(expanding.values()) + sum(contracting.values()) == calls


def test_window_consistency_catches_a_subblock_wrong_only_on_the_past_box(
    random_skeletons, monkeypatch
):
    # a past x(-Ne, 0) of a swept window that no swept window has as its
    # future: subblock calls on it come from the past box alone
    sk = random_skeletons[2]
    swept = checks.Suite(sk, CFG).windows(CFG.radius, "window-consistency")[:80]
    futures = {w.future for w in swept}
    past = next(w.past for w in swept if w.past not in futures)

    def wrong(lam, a, b):
        return lam if lam == past and any(a) else subblock(lam, a, b)

    assert checks.check_window_consistency(checks.Suite(sk, CFG)).status == "pass"
    monkeypatch.setattr(checks, "subblock", wrong)
    result = checks.check_window_consistency(checks.Suite(sk, CFG))
    assert result.status == "fail"
    assert result.detail.startswith("nested extraction differs in")


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

    assert checks.check_opposite_involution(checks.Suite(flip, CFG)).status == "pass"
    monkeypatch.setattr(checks, "opposite_morphism", wrong)
    result = checks.check_opposite_involution(checks.Suite(flip, CFG))
    assert result.status == "fail"
    assert result.detail.startswith("op(op(")


# The word-level rows check compose and factorize on the critical pairs
# only; the faults below are the ones the exhaustive rows caught, and each
# still fails what remains: the rows, normal-form-confluence,
# window-consistency or the definition-level oracle.


def _skip_last_swap(sk, word):
    # _normalize_word whose inserted edge stops one swap short of its place
    colors, swap = sk.color_of, sk.square_swap
    out = []
    for n, x in enumerate(word):
        out.append(x)
        c = colors[x]
        i = n - 1
        while i >= 1 and colors[out[i]] > c and colors[out[i - 1]] > c:
            x, out[i + 1] = swap[out[i]][x]
            i -= 1
        out[i + 1] = x
    return out


def _backwards_lookup(sk, word):
    # _normalize_word that looks each descending pair up as (lower, higher)
    colors = sk.color_of
    out = []
    for n, x in enumerate(word):
        out.append(x)
        c = colors[x]
        i = n - 1
        while i >= 0 and colors[out[i]] > c:
            x, out[i + 1] = core._swap(sk, x, out[i])
            i -= 1
        out[i + 1] = x
    return out


def _peel_head_with(walk, pop):
    # _peel_head that may leave each head edge in the word (pop=False) or
    # take it without walking it to the front (walk=False)
    def peel(sk, word, degree, m):
        swap = sk.square_swap
        head = []
        left = list(degree)
        for c, n in enumerate(m):
            p = sum(left[:c])
            for _ in range(n):
                x = word.pop(p) if pop else word[p]
                for i in range(p - 1, -1, -1) if walk else ():
                    x, word[i] = swap[word[i]][x]
                head.append(x)
            left[c] -= n
        return head

    return peel


def test_a_normalization_that_skips_the_last_swap_fails_confluence_and_the_oracle(
    g3, monkeypatch
):
    assert checks.check_normal_form_confluence(checks.Suite(g3, CFG)).status == "pass"
    monkeypatch.setattr(core, "_normalize_word", _skip_last_swap)
    result = checks.check_normal_form_confluence(checks.Suite(g3, CFG))
    assert result.status == "fail"
    assert result.detail.startswith("word ")
    with pytest.raises(AssertionError):
        assert_matches_oracle(g3)


def test_a_normalization_that_looks_squares_up_backwards_fails_the_word_level_rows(
    random_skeletons, monkeypatch
):
    # on a many-vertex rank-3 graph the reversed pair is mostly not
    # composable, so the lookup misses; on the one-vertex rank-3 graph it
    # hits a wrong square
    sk = combine(random_skeletons[0], random_skeletons[3], "product")
    rows = (checks.check_factorization_uniqueness, checks.check_associativity)
    for graph in (sk, random_skeletons[4]):
        assert [row(checks.Suite(graph, CFG)).status for row in rows] == ["pass", "pass"]
    monkeypatch.setattr(core, "_normalize_word", _backwards_lookup)
    for row in rows:
        result = row(checks.Suite(sk, CFG))
        assert result.status == "fail"
        assert result.detail.startswith("ValidationFailure: square table")
        assert row(checks.Suite(random_skeletons[4], CFG)).status == "fail"


@pytest.mark.parametrize(
    "graph, peel",
    [
        ("g3", _peel_head_with(walk=True, pop=False)),
        ("flip", _peel_head_with(walk=False, pop=True)),
    ],
    ids=["head-left-in-the-word", "head-not-walked"],
)
def test_a_wrong_peel_head_fails_factorization_uniqueness_and_window_consistency(
    g3, random_skeletons, graph, peel, monkeypatch
):
    # g3's squares swap edges without renaming them, so an unwalked head
    # edge is right there; the random flip graph's squares rename them
    sk = {"g3": g3, "flip": random_skeletons[2]}[graph]
    rows = (checks.check_factorization_uniqueness, checks.check_window_consistency)
    assert [row(checks.Suite(sk, CFG)).status for row in rows] == ["pass", "pass"]
    monkeypatch.setattr(core, "_peel_head", peel)
    assert [row(checks.Suite(sk, CFG)).status for row in rows] == ["fail", "fail"]


def test_associativity_catches_a_compose_wrong_on_one_critical_triple(
    random_skeletons, monkeypatch
):
    sk = random_skeletons[4]
    assert sk.k == 3
    h, g, f = (make_morphism(sk, [e.id]) for e in next(core._critical_triples(sk, range(3))))
    gf = compose(g, f)
    others = [m for m in enumerate_morphisms(sk, (1, 1, 1)) if m != compose(h, gf)]

    def wrong(mu, nu):
        return others[0] if (mu, nu) == (h, gf) else compose(mu, nu)

    assert checks.check_associativity(checks.Suite(sk, CFG)).status == "pass"
    monkeypatch.setattr(checks, "compose", wrong)
    result = checks.check_associativity(checks.Suite(sk, CFG))
    assert (result.status, result.detail) == ("fail", f"({h!r}{g!r}){f!r} != {h!r}({g!r}{f!r})")


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


PERRON_CHECKS = (
    "eigen-equations",
    "perron-positivity",
    "measure-total-mass",
    "measure-expansion",
    "measure-product-decomposition",
    "measure-haar-scaling",
    "measure-trace-scaling",
    "measure-disintegration",
)


def test_a_failing_perron_data_is_computed_once_and_reported_by_every_perron_check(
    g2, monkeypatch
):
    calls = []

    def stalled(sk, tol):
        calls.append(tol)
        raise NotConverged("power iteration did not reach residual 1e-12")

    monkeypatch.setattr(checks, "perron_data", stalled)
    results = {r.name: r for r in checks.run_suite(g2, CFG)}
    assert len(calls) == 1
    for name in PERRON_CHECKS:
        assert (results[name].status, results[name].detail) == (
            "fail",
            "NotConverged: power iteration did not reach residual 1e-12",
        )
    # the mixing check reads the connectivity class only
    assert results["mixing-lag"].status == "pass"


def test_a_suite_builds_each_exhaustive_window_list_once(g3, monkeypatch):
    # radius 2 is swept exhaustively by ten checks; radii 3 and 4 (shift
    # semigroup, semidirect laws) are above the cap and sampled
    radii = []

    def counted(sk, n, *args):
        radii.append(n)
        return all_windows(sk, n, *args)

    assert count_morphisms(g3, (4, 4)) <= checks.WINDOW_CAP < count_morphisms(g3, (6, 6))
    monkeypatch.setattr(checks, "all_windows", counted)
    results = checks.run_suite(g3, CFG)
    assert not [r for r in results if r.failed]
    assert radii == [CFG.radius]


def _wrong_perron(**change):
    """perron_data with the fields in `change` replaced by their images
    under the given maps."""

    def wrong(sk, tol):
        pd = perron_data(sk, tol)
        return replace(pd, **{key: f(getattr(pd, key)) for key, f in change.items()})

    return wrong


def _scaled_value(fn, factor, applies):
    """fn with its MeasureValue scaled by `factor` where applies(*args)."""

    def wrong(*args):
        right = fn(*args)
        return replace(right, value=right.value * factor) if applies(*args) else right

    return wrong


MEASURE_FAULTS = {
    # a * b unchanged at every vertex, so the total mass still reads 1
    "a-and-b-at-one-vertex": (
        "g2",
        "perron_data",
        _wrong_perron(
            a=lambda a: {**a, "u": a["u"] * 1.01}, b=lambda b: {**b, "u": b["u"] / 1.01}
        ),
        {
            "eigen-equations",
            "measure-expansion",
            "measure-product-decomposition",
            "measure-haar-scaling",
            "measure-disintegration",
        },
    ),
    "every-t": (
        "g3",
        "perron_data",
        _wrong_perron(t=lambda t: tuple(x * 1.001 for x in t)),
        {
            "eigen-equations",
            "measure-expansion",
            "measure-product-decomposition",
            "measure-haar-scaling",
            "measure-disintegration",
        },
    ),
    "haar-weight-past-2": (
        "g3",
        "haar_weight",
        _scaled_value(haar_weight, 1.001, lambda pd, p, lam: sum(p) >= 2),
        {"measure-haar-scaling"},
    ),
    "unstable-mass-at-degree-2": (
        "g2",
        "conditional_measure",
        _scaled_value(
            conditional_measure,
            1.001,
            lambda pd, side, lam: side == "unstable" and lam.degree == (2,),
        ),
        {"measure-product-decomposition", "measure-haar-scaling"},
    ),
    "parry-measure-at-degree-2": (
        "g2",
        "parry_measure",
        _scaled_value(parry_measure, 1.001, lambda pd, c: c.lam.degree == (2,)),
        {"measure-expansion", "measure-disintegration"},
    ),
}


@pytest.mark.parametrize("fault", MEASURE_FAULTS)
def test_the_measure_rows_catch_a_wrong_measure(fixture_graphs, fault, monkeypatch):
    # the count ratios read exact path counts only, so a fault in the Perron
    # data or in an evaluator moves the evaluators off them; every row that
    # fails is pinned
    name, target, wrong, failing = MEASURE_FAULTS[fault]
    monkeypatch.setattr(checks, target, wrong)
    results = checks.run_suite(fixture_graphs[name], CFG)
    assert {r.name for r in results if r.failed} == failing


def test_a_compose_wrong_on_one_class_still_fails_mixing_lag(g2, monkeypatch):
    # the measure rows caught this fault while they summed over composites;
    # they compose nothing now.  compose drops its second factor when both
    # factors are degree-2 loops at u, in every module that binds it
    cls = ((2,), "u", "u")

    def wrong(a, b):
        if {(m.degree, m.range, m.source) for m in (a, b)} == {cls}:
            return a
        return compose(a, b)

    modules = [
        module
        for name, module in sys.modules.items()
        if name.partition(".")[0] == "kgraphs" and getattr(module, "compose", None) is compose
    ]
    assert checks in modules and core in modules
    for module in modules:
        monkeypatch.setattr(module, "compose", wrong)
    results = checks.run_suite(g2, CFG)
    assert {r.name for r in results if r.failed} == {"bracket-axioms", "mixing-lag"}


def test_count_ratios_are_exact_on_one_vertex_graphs(g1, g3, g4):
    # u and v are constant there, so each ratio is 1 / |Lambda^d| at any N
    for sk in (g1, g3, g4, random_flip_2graph(random.Random(1), 7, 7)):
        (v,) = sk.vertices
        assert checks._count_ratios(sk) == (
            2,
            {
                (d, v, v): (1 / count_morphisms(sk, d),) * 3
                for d in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k))
            },
        )


def test_count_ratios_match_the_golden_mean_closed_form(g2):
    # A = [[1, 1], [1, 0]] is symmetric: t = phi and a = b = (phi, 1) / |(phi, 1)|
    phi = (1 + math.sqrt(5)) / 2
    a = {"u": phi / math.hypot(phi, 1), "v": 1 / math.hypot(phi, 1)}
    steps, ratios = checks._count_ratios(g2)
    assert steps == 32 and len(ratios) == 9
    for ((d,), r, s), (two, stable, unstable) in ratios.items():
        assert two == pytest.approx(phi**-d * a[r] * a[s], abs=1e-9)
        assert stable == pytest.approx(phi**-d * a[r] / a[s], abs=1e-9)
        assert unstable == pytest.approx(phi**-d * a[s] / a[r], abs=1e-9)


def test_the_measure_rows_compare_every_class_up_to_2e():
    # 70 loops on one vertex: |Lambda^2| = 4,900, so a pool of paths capped
    # below that misses the degree-2 class
    loops = tuple(ColoredEdge(f"e{i}", 0, "v", "v") for i in range(70))
    suite = checks.Suite(Skeleton(1, ("v",), loops, ()), CFG)
    for check in (checks.check_expansion, checks.check_haar_scaling):
        result = check(suite)
        assert (result.status, result.detail) == ("pass", "3 of 3 classes, N = 2")


def test_the_measure_rows_skip_when_the_ratios_do_not_settle(g2, monkeypatch):
    monkeypatch.setattr(checks, "RATIO_STEPS", 2)
    suite = checks.Suite(g2, CFG)
    for check in (checks.check_expansion, checks.check_haar_scaling):
        result = check(suite)
        assert (result.status, result.detail) == ("skip", "count ratios still move after 2 steps")


def test_the_count_ratios_give_up_on_a_near_periodic_cycle_without_perron_data(monkeypatch):
    # the second eigenvalue of I + A lies close to 1 + rho on this 120-cycle
    # with one chord; perron_data takes seconds there
    def unused(sk, tol):
        raise AssertionError("perron_data called")

    monkeypatch.setattr(checks, "perron_data", unused)
    assert checks._count_ratios(random_1graph(random.Random(120), 120, 1)) == (1024, None)


@pytest.mark.parametrize(
    "sk", [P36, random_flip_2graph(random.Random(1), 7, 7), R40], ids=["p36", "flip77", "r40"]
)
def test_the_battery_passes_on_larger_graphs(sk):
    # the graphs where the measure rows cost most: 36 vertices, 49 loop
    # pairs on one vertex, and a 40-vertex 1-graph
    results = {r.name: r for r in checks.run_suite(sk, CFG)}
    assert all(r.status in ("pass", "skip") for r in results.values())
    assert results["measure-expansion"].status == results["measure-haar-scaling"].status == "pass"


def test_random_suites_match_the_golden_rows(random_suites):
    # the rank-2 and rank-3 graphs sweep seeded window samples: every
    # (name, status, detail) row is pinned; tests/regen_golden.py rewrites
    # the file for a change of the report schema made on purpose
    assert random_suite_text(random_suites) == (GOLDEN / "random7-suite.txt").read_text()


def test_product_decomposition_catches_a_stable_mass_read_at_the_source(g2, monkeypatch):
    # a(s(lam)) in place of a(r(lam)): the box masses at each vertex of the
    # two-vertex golden-mean graph no longer multiply to mu(Z(v))
    def wrong(pd, side, lam):
        right = conditional_measure(pd, side, lam)
        if side != "stable":
            return right
        return replace(right, value=pd.t_power(dv.neg(lam.degree)) * pd.a[lam.source])

    monkeypatch.setattr(checks, "conditional_measure", wrong)
    result = checks.check_product_decomposition(checks.Suite(g2, CFG))
    assert result.status == "fail"
    assert result.detail.startswith("fiber masses at")


def test_product_decomposition_reaches_degree_2e_on_a_large_flip_graph(monkeypatch):
    # 49 loop pairs: the box of degree 2e holds 7^4 paths
    sk = random_flip_2graph(random.Random(1), 7, 7)
    assert checks.check_product_decomposition(checks.Suite(sk, CFG)).status == "pass"
    monkeypatch.setattr(checks, "DEFAULT_ENUMERATION_CAP", 7**4 - 1)
    result = checks.check_product_decomposition(checks.Suite(sk, CFG))
    assert (result.status, result.detail) == (
        "skip",
        "|Lambda^(2, 2)| = 2401 exceeds the enumeration cap",
    )


# Faults in the boxes that relations.py defines once, each clipped to stay
# inside the window: the predicates and the battery's partitions read the
# wrong box alike, so only rows that compare a partition with another
# reading (pi, extract, the opposite windows, the path counts) can see it.
def _ne(w):
    return dv.scaled(w.N, w.skeleton.k)


def _e(w):
    return dv.ones(w.skeleton.k)


_STABLE_BOX = relations._stable_box
BOX_FAULTS = {
    "stable hi-e": ("_stable_box", lambda w, m: (m, dv.join(m, dv.sub(_ne(w), _e(w))))),
    "stable lo+e": ("_stable_box", lambda w, m: (dv.meet(dv.add(m, _e(w)), _ne(w)), _ne(w))),
    "stable point": ("_stable_box", lambda w, m: (m, m)),
    "unstable lo+e": ("_unstable_box", lambda w, n: (dv.meet(dv.sub(_e(w), _ne(w)), n), n)),
    "unstable hi-e": (
        "_unstable_box",
        lambda w, n: (dv.neg(_ne(w)), dv.join(dv.sub(n, _e(w)), dv.neg(_ne(w)))),
    ),
}
_FOUR = {"stable-nesting", "relation-fibered-product", "asymptotic-meet", "relation-opposite-swap"}
_TWO = {"asymptotic-meet", "relation-opposite-swap"}


@pytest.mark.parametrize(
    "fault, failing",
    [
        ("stable hi-e", {"g1": _FOUR, "g2": _FOUR, "g3": _FOUR}),
        ("stable lo+e", {"g1": _FOUR, "g2": _FOUR | {"relation-shift-conjugation"}, "g3": _FOUR}),
        ("stable point", {"g1": _FOUR, "g2": _FOUR, "g3": _FOUR}),
        ("unstable lo+e", {"g1": _TWO, "g2": _TWO, "g3": _TWO}),
        ("unstable hi-e", {"g1": _TWO, "g2": _TWO, "g3": _TWO}),
    ],
)
def test_relation_rows_catch_a_wrong_box(request, monkeypatch, fault, failing):
    monkeypatch.setattr(relations, *BOX_FAULTS[fault])
    for name in failing:
        rows = checks.run_suite(request.getfixturevalue(name), CFG)
        assert {r.name for r in rows if r.failed} == failing[name], name


def test_stable_nesting_compares_class_sizes_with_path_counts(g1, monkeypatch):
    # on the full 2-shift every stable partition nests whatever the box, so
    # only the class sizes (1^T M^(Ne+m))_r(nu) see a box one step short
    monkeypatch.setattr(relations, *BOX_FAULTS["stable hi-e"])
    result = checks.check_stable_nesting(checks.Suite(g1, CFG))
    assert (result.status, result.detail) == (
        "fail",
        "stable class sizes at (-2,) break the path counts",
    )


def test_shift_conjugation_catches_a_stable_box_wrong_only_on_shifted_windows(g3, monkeypatch):
    # right on the radius-N windows, which stable-nesting sweeps
    def wrong(w, m):
        return BOX_FAULTS["stable hi-e"][1](w, m) if w.N < CFG.radius else _STABLE_BOX(w, m)

    monkeypatch.setattr(relations, "_stable_box", wrong)
    assert checks.check_stable_nesting(checks.Suite(g3, CFG)).status == "pass"
    result = checks.check_shift_conjugation(checks.Suite(g3, CFG))
    assert (result.status, result.detail) == (
        "fail",
        "G_(s,(1, 1)+(-1, -1)) mismatch under sigma^(1, 1)",
    )


def test_checks_do_not_read_the_grid():
    # the grid format stays behind dynamics: the battery reads blocks
    # through the relations' class tokens and dynamics._block_tokens
    grid = {"_cells", "_read", "GridShape", "ReadPlan", "grid_shape"}
    named = set()
    for node in ast.walk(ast.parse(Path(checks.__file__).read_text())):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    assert not named & grid


def test_shift_conjugation_catches_a_shift_that_moves_the_wrong_way(g3, monkeypatch):
    monkeypatch.setattr(checks, "shift", lambda w, m: shift(w, dv.neg(m)))
    result = checks.check_shift_conjugation(checks.Suite(g3, CFG))
    assert result.status == "fail"
    assert result.detail.startswith("G_(s,")


@pytest.mark.parametrize("every", [1, 2])
@pytest.mark.parametrize("other", ["previous", "fixed"])
def test_shift_conjugation_catches_a_shift_with_the_right_key_on_another_grid(
    g3, monkeypatch, other, every
):
    # the key is right, so only a read of the grid sees it: sigma^m x sits
    # on the grid of sigma^m of the previous swept window, or of one fixed
    # window, on every call or on every second one.  A shifted sweep keeps
    # the first window met of each value, so a wrong entry that repeats a
    # right one is not read: a grid taken from the next swept window on
    # every call is such a case on g3, and no check sees it
    windows = all_windows(g3, CFG.radius)
    if other == "previous":
        source = {w: windows[i - 1] for i, w in enumerate(windows)}
    else:
        source = {w: windows[1] if i == 0 else windows[0] for i, w in enumerate(windows)}
    calls = itertools.count()

    def wrong(w, m):
        v = shift(w, m)
        if next(calls) % every:
            return v
        u = shift(source[w], m)
        return Window._of(v.skeleton, v.N, v.key, u._cells())

    monkeypatch.setattr(checks, "shift", wrong)
    assert checks.check_shift_conjugation(checks.Suite(g3, CFG)).status == "fail"


def test_a_shifted_sweep_holds_one_object_per_distinct_window(g3):
    suite = checks.Suite(g3, CFG)
    windows = suite.windows(CFG.radius, "bracket-axioms")
    one = dv.ones(g3.k)
    for m in dv.box(dv.neg(one), one):
        moved = suite.shifted(CFG.radius, "bracket-axioms", m)
        assert list(moved) == [shift(w, m) for w in windows]
        assert len({id(v) for v in moved}) == len(set(moved))
        if dv.is_zero(m):
            assert all(v is w for v, w in zip(moved, windows))
        else:
            assert len(set(moved)) == 16


def test_tail_eq_at_the_corner_compares_the_vertex_x_ne(g2):
    # the box [Ne, Ne] has the empty word: only the vertex x(Ne) is left
    windows = all_windows(g2, 2)
    ends = [w.extract((2,), (2,)).range for w in windows]
    tok = _stable_classes(windows, (2,))
    assert {ends[i] == ends[j] for i in range(len(ends)) for j in range(len(ends))} == {True, False}
    for i, a in enumerate(ends):
        for j, b in enumerate(ends):
            assert (tok[i] == tok[j]) == (a == b)


def test_block_tokens_agree_with_extracted_morphisms(g3):
    # on windows built from their bodies, on shifted views of them, and on
    # brackets: views and brackets have no grid until first read
    windows = all_windows(g3, 2)[::7]
    brackets = [bracket(x, y) for x in windows[:6] for y in windows[-6:] if x.origin == y.origin]
    for views in (windows, [shift(w, (1, -1)) for w in windows], brackets):
        n = views[0].N
        for m in dv.box((-n, -n), (n, n)):
            for top in dv.box(m, (n, n)):
                tok = _block_tokens(views, m, top)
                extracted = [w.extract(m, top) for w in views]
                for i, a in enumerate(extracted):
                    for j, b in enumerate(extracted):
                        assert (tok[i] == tok[j]) == (a == b)


def test_bracket_axioms_catch_a_shift_wrong_only_on_bracketed_windows_for_one_m(g3, monkeypatch):
    # the swept windows and their shifts are right: only sigma^m [x, y] for
    # this one m reads the fault
    made: dict[int, Window] = {}  # by id; holding z keeps its id from reuse

    def recording(x, y):
        z = bracket(x, y)
        made[id(z)] = z
        return z

    def wrong(w, m):
        return shift(w, dv.neg(m)) if m == (1, -1) and id(w) in made else shift(w, m)

    monkeypatch.setattr(checks, "bracket", recording)
    monkeypatch.setattr(checks, "shift", wrong)
    result = checks.check_bracket_axioms(checks.Suite(g3, CFG))
    assert result.status == "fail"
    assert result.detail == "sigma^(1, -1) does not commute with bracket"


def test_bracket_axioms_catch_a_bracket_wrong_on_the_moved_windows_of_one_strip_class(
    g3, monkeypatch
):
    # [sx, sy] returns sx for the shifts by m of the windows of one strip
    # class x(0, m); every other bracket is right
    m = (1, 1)
    windows = all_windows(g3, CFG.radius)
    strip = windows[5].extract((0, 0), m)
    moved = {shift(w, m) for w in windows if w.extract((0, 0), m) == strip}
    assert 1 < len(moved) < len(windows)

    def wrong(x, y):
        return x if x in moved and y in moved else bracket(x, y)

    monkeypatch.setattr(checks, "bracket", wrong)
    result = checks.check_bracket_axioms(checks.Suite(g3, CFG))
    assert result.status == "fail"
    assert "commute" in result.detail


def test_fibered_product_catches_a_restriction_map_wrong_on_one_window(g3, monkeypatch):
    windows = all_windows(g3, CFG.radius)
    target = windows[5]
    other = next(w.future for w in windows if w.future != target.future)

    def wrong(x):
        return other if x == target else restriction_map(x)

    assert checks.check_fibered_product(checks.Suite(g3, CFG)).status == "pass"
    monkeypatch.setattr(checks, "restriction_map", wrong)
    result = checks.check_fibered_product(checks.Suite(g3, CFG))
    assert (result.status, result.detail) == ("fail", "stable at (0, 0) but pi differs")


def _relation(tokens):
    tokens = np.array(tokens)
    return tokens[:, None] == tokens[None, :]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 600), st.integers(1, 600), st.randoms(use_true_random=False), st.data())
def test_partition_tests_match_the_boolean_matrices(n, width, rng, data):
    # the oracle is the W x W definition of each test; the coarsened and
    # relabelled draws make the true cases as common as the false ones
    a = [rng.randrange(width) for _ in range(n)]
    merge = [rng.randrange(max(1, width // 3)) for _ in range(width)]
    relabel = rng.sample(range(10**6), width)
    b = data.draw(
        st.sampled_from(
            [
                [merge[t] for t in a],
                [relabel[t] for t in a],
                [rng.randrange(width) for _ in range(n)],
            ]
        )
    )
    meets = {}
    c = data.draw(
        st.sampled_from(
            [
                [meets.setdefault(pair, len(meets)) for pair in zip(a, b)],
                [relabel[t] for t in a],
                b,
            ]
        )
    )
    ra, rb, rc = _relation(a), _relation(b), _relation(c)
    assert checks._refines(a, b) == (not np.any(ra & ~rb))
    assert checks._refines(b, a) == (not np.any(rb & ~ra))
    assert checks._same(a, b) == bool(np.all(ra == rb))
    assert checks._meet(a, b, c) == bool(np.all((ra & rb) == rc))


def test_a_suite_loads_no_module_beyond_those_the_cli_loads():
    # a lazy import inside the battery stays resident for the whole run; the
    # library needs the standard library alone, so numpy (the tests' oracle)
    # is loaded neither by the import nor by the commands that read floats,
    # and the digests come from the built-in SHA-256 module, not from
    # hashlib, which would load OpenSSL through _hashlib
    code = f"""
import sys
import kgraphs
import kgraphs.cli
assert "numpy" not in sys.modules
assert not {{"hashlib", "_hashlib"}} & set(sys.modules), "hashlib at import"
before = set(sys.modules)
from pathlib import Path
for name in ("g1", "g2", "g3", "g4"):
    text = (Path({str(FIXTURES)!r}) / f"{{name}}.json").read_text()
    # exit code 0: no violation, so no failed suite row
    for command in ("spectral", "measure", "suite"):
        assert kgraphs.cli.run(command, text).exit_code == 0, (name, command)
    # Window.record names its skeleton by Skeleton.digest
    assert kgraphs.cli.run("dynamics", text).exit_code == 0, name
assert "numpy" not in sys.modules
assert not {{"hashlib", "_hashlib"}} & set(sys.modules), "hashlib after the runs"
print(sorted(set(sys.modules) - before))
"""
    src = str(FIXTURES.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr[-4000:]
    assert out.stdout.strip() == "[]"
