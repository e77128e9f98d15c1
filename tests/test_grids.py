"""Windows as unit-edge grids, against the word-rewriting oracle.

Every window here is built from a body made by word rewriting
(`enumerate_morphisms`, `sample_morphism`), and every read off its grid is
compared with `subblock`/`compose` on that body, which never touch a grid.
The graphs are g1-g4 and two with non-flip square tables: a random one-vertex
2-graph and a rank-3 product of one with a 1-graph.
"""

import math
import random

import pytest

from kgraphs import degrees as dv
from kgraphs.checks import AnalysisConfig, run_suite
from kgraphs.core import (
    compose,
    count_morphisms,
    enumerate_morphisms,
    opposite_graph,
    sample_morphism,
    subblock,
)
from kgraphs.dynamics import (
    all_windows,
    bracket,
    distance,
    make_window,
    restrict,
    sample_window,
    shift,
)
from kgraphs.errors import OutOfBox

GRAPHS = ["g1", "g2", "g3", "g4", "flip", "product3"]


@pytest.fixture(params=GRAPHS)
def sk(request, fixture_graphs, random_skeletons):
    graphs = {**fixture_graphs, "flip": random_skeletons[2], "product3": random_skeletons[4]}
    assert graphs["product3"].k == 3
    return graphs[request.param]


def _bodies(sk, n, few):
    """Every body of degree 2ne when there are at most ``few``, else ``few``
    seeded uniform draws."""
    d = dv.scaled(2 * n, sk.k)
    if count_morphisms(sk, d) <= few:
        return enumerate_morphisms(sk, d)
    rng = random.Random(n)
    return [sample_morphism(sk, d, rng) for _ in range(few)]


def _few(sk, n):
    # a rank-3 window has 3375 boxes at radius 2 and 21952 at radius 3
    return {2: 2, 3: 1}.get(n, 6) if sk.k == 3 else 6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extract_matches_subblock(sk, n):
    ne = dv.scaled(n, sk.k)
    top = dv.scaled(2 * n, sk.k)
    for body in _bodies(sk, n, _few(sk, n)):
        w = make_window(sk, body, n)
        # bracket(w, w) is w rebuilt from its key alone, filled from the
        # path through the origin instead of the normal-form staircase
        rebuilt = bracket(w, w)
        assert rebuilt == w and hash(rebuilt) == hash(w)
        for lo in dv.box(dv.zero(sk.k), top):
            for hi in dv.box(lo, top):
                want = subblock(body, lo, hi)
                m, mm = dv.sub(lo, ne), dv.sub(hi, ne)
                assert w.extract(m, mm) == want, (body, lo, hi)
                assert rebuilt.extract(m, mm) == want, (body, lo, hi)
        assert w.past == subblock(body, dv.zero(sk.k), ne)
        assert w.future == subblock(body, ne, top)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_views_match_fresh_windows(sk, n):
    k = sk.k
    ne = dv.scaled(n, k)
    for body in _bodies(sk, n, 6):
        w = make_window(sk, body, n)
        for m in dv.box(dv.scaled(1 - n, k), dv.scaled(n - 1, k)):
            view = shift(w, m)
            r = view.N
            re, centre = dv.scaled(r, k), dv.add(ne, m)
            fresh = make_window(sk, subblock(body, dv.sub(centre, re), dv.add(centre, re)), r)
            assert view == fresh and hash(view) == hash(fresh)
            assert view.body == fresh.body
            if r > 1:  # a view of a view
                inner = restrict(view, r - 1)
                assert inner.body == subblock(fresh.body, dv.ones(k), dv.scaled(2 * r - 1, k))
        for r in range(1, n + 1):
            fresh = make_window(sk, subblock(body, dv.scaled(n - r, k), dv.scaled(n + r, k)), r)
            view = restrict(w, r)
            assert view == fresh and hash(view) == hash(fresh)
            assert view.body == fresh.body


def test_every_box_of_every_view_matches_subblock(sk):
    # views are cut at centers other than 0 (a view of a view from the same
    # source), and views and brackets fill their grids from their keys;
    # every box of each is read off its own plan and compared with subblock
    # on the body the view stands for
    k = sk.k
    radii = (2,) if k == 3 else (2, 3)  # a rank-3 view of radius 2 has 3375 boxes
    for n, body in [(n, b) for n in radii for b in _bodies(sk, n, 2)]:
        ne = dv.scaled(n, k)
        w = make_window(sk, body, n)
        views = []
        for parent in (w, bracket(w, w)):
            for m in dv.box(dv.scaled(1 - n, k), dv.scaled(n - 1, k)):
                view = shift(parent, m)
                centre = dv.add(ne, m)
                views.append((view, centre))
                if view.N > 1:  # views of a view, by restriction and by shift
                    views.append((restrict(view, view.N - 1), centre))
                    one = dv.unit(0, k)
                    views.append((shift(view, one), dv.add(centre, one)))
            views.append((restrict(parent, 1), ne))
        for view, centre in views:
            r = view.N
            re = dv.scaled(r, k)
            fresh = subblock(body, dv.sub(centre, re), dv.add(centre, re))
            for lo in dv.box(dv.zero(k), dv.scaled(2 * r, k)):
                for hi in dv.box(lo, dv.scaled(2 * r, k)):
                    got = view.extract(dv.sub(lo, re), dv.sub(hi, re))
                    assert got == subblock(fresh, lo, hi), (body, centre, r, lo, hi)
            # boxes outside the view raise on every call, even where the
            # grid it was cut from extends further
            for m, mm in ((dv.scaled(-r - 1, k), dv.zero(k)), (dv.zero(k), dv.scaled(r + 1, k))):
                for _ in range(2):
                    with pytest.raises(OutOfBox):
                        view.extract(m, mm)


def test_bracket_is_composition_at_radius_one(sk):
    e, two = dv.ones(sk.k), dv.scaled(2, sk.k)
    bodies = _bodies(sk, 1, 64)
    windows = [make_window(sk, b, 1) for b in bodies]
    pairs = 0
    for bx, x in zip(bodies, windows):
        for by, y in zip(bodies, windows):
            if x.origin != y.origin:
                continue
            want = compose(subblock(bx, dv.zero(sk.k), e), subblock(by, e, two))
            z = bracket(x, y)
            assert z.body == want
            assert z == make_window(sk, want, 1)
            pairs += 1
    assert pairs >= len(windows)


def test_window_operations_keep_no_per_pair_tables(g3, random_skeletons, random_suites):
    # shift and bracket are views and key gluing: nothing to memoise
    x, y = all_windows(g3, 2)[:2]
    distance(shift(bracket(x, y), (1, 0)), restrict(y, 1))
    assert not {"shift", "bracket"} & set(g3._memo)
    # a whole suite leaves only the binary powers M_c^(2^j) of the
    # generators (no vertex matrix above degree 4e: j <= 2), grid shapes
    # keyed by degree and the opposite graph; what the checks share lives
    # in the run's Suite
    suites = [(g3, run_suite(g3, AnalysisConfig())), (random_skeletons[4], random_suites[4])]
    for sk, results in suites:
        assert not [r for r in results if r.failed]
        for held in (sk, opposite_graph(sk)):
            assert set(held._memo) <= {"powers", "grid", "opposite"}
            assert len(held._memo.get("powers", ())) <= 3 * held.k
            # each shape's plans are bounded by its box geometry, however
            # many windows and pairs the suite read through them
            _assert_within_bounds(held)


def test_a_library_loop_leaves_each_shape_within_its_box_bounds(g3):
    # windows sampled at radii 1-6, shifted by every a and then by every b
    # that fits (views of views), read and dropped: the shapes the skeleton
    # keeps stay within the bounds of their boxes, however many views were
    # read through them
    rng = random.Random(5)
    k = g3.k
    for N in range(1, 7):
        x, y = sample_window(g3, N, rng), sample_window(g3, N, rng)
        for a in dv.box(dv.scaled(1 - N, k), dv.scaled(N - 1, k)):
            xa, ya = shift(x, a), shift(y, a)
            for b in dv.box(dv.scaled(1 - xa.N, k), dv.scaled(xa.N - 1, k)):
                u, v = shift(xa, b), shift(ya, b)
                ne = dv.scaled(u.N, k)
                distance(u, v)
                u.extract(dv.neg(ne), dv.zero(k))
                v.extract(dv.zero(k), ne)
    _assert_within_bounds(g3)


def _assert_within_bounds(held):
    for d, shape in held._memo["grid"].items():
        reads, views = _plan_bounds(d)
        assert len(shape._reads) <= reads and len(shape._views) <= views, d
        assert len(shape._fills) <= math.prod(di + 1 for di in d)


def _plan_bounds(d):
    """The most read plans and view plans a grid shape of the box [0, d] can
    hold: read plans by chain (a, b) with a <= b, by fill path (0, mid, d),
    and, on a window's box [0, 2Ne], by view key chain and by window box
    (N, m, n); view plans by (center, n), |center| <= N - n."""
    k = len(d)
    N = d[0] // 2 if d == dv.scaled(d[0], k) and d[0] % 2 == 0 else 0
    views = sum((2 * (N - n) + 1) ** k for n in range(1, N + 1))
    reads = (
        math.prod(math.comb(di + 2, 2) for di in d)
        + math.prod(di + 1 for di in d)
        + views
        + (math.comb(2 * N + 2, 2) ** k if N else 0)
    )
    return reads, views
