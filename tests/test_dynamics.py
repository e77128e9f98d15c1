"""Windows, shift, metric, bracket, local product structure, mixing."""

import itertools
import math
import operator
import random

import numpy as np
import pytest

from kgraphs import degrees as dv
from kgraphs.core import compose, enumerate_morphisms, identity, make_morphism
from kgraphs.dynamics import (
    MetricParams,
    Window,
    all_windows,
    bracket,
    connecting_morphism,
    distance,
    local_product_enum,
    make_window,
    mixing_lag,
    restrict,
    sample_window,
    sample_window_parry,
    shift,
    window_from_record,
)
from kgraphs.errors import (
    DegreeMismatch,
    GraphMismatch,
    NotBracketable,
    NotPrimitive,
    OutOfBox,
    RadiusExhausted,
    RadiusMismatch,
)
from kgraphs.measure import CylinderSet
from kgraphs.spectral import classify_connectivity, perron_data, vertex_matrix


def w1(g1, word, n=2):
    return make_window(g1, make_morphism(g1, list(word)), n)


# ---------------------------------------------------------------------------
# construction and extraction
# ---------------------------------------------------------------------------


def test_make_window_accepts_2ne_bodies(g3):
    body = enumerate_morphisms(g3, (2, 2))[0]
    w = make_window(g3, body, 1)
    assert w.origin == "v"


def test_make_window_rejects_wrong_degree(g1):
    with pytest.raises(DegreeMismatch):
        make_window(g1, make_morphism(g1, ["a", "a", "a"]), 2)
    with pytest.raises(DegreeMismatch):
        make_window(g1, make_morphism(g1, ["a", "a"]), 0)


def test_window_constructor_checks_radius_and_body_degree(g2):
    # every window is built here (all_windows, window_op, the samplers), so
    # the constructor checks the radius and the degree, not make_window alone
    cases = [
        (2, make_morphism(g2, ["uu", "uu"]), r"body degree \(2,\) is not 2Ne = \(4,\)"),
        (0, identity(g2, "u"), "radius must be >= 1, got 0"),
        (2, make_morphism(g2, ["uu"] * 6), r"body degree \(6,\) is not 2Ne = \(4,\)"),
        (1.5, make_morphism(g2, ["uu"] * 3), "radius must be an integer, got 1.5"),
    ]
    for radius, body, match in cases:
        with pytest.raises(DegreeMismatch, match=match):
            Window(radius, body)


def test_make_window_rejects_foreign_body(g1, g2):
    with pytest.raises(GraphMismatch):
        make_window(g2, make_morphism(g1, ["a", "a"]), 1)


def test_window_extraction(g1):
    w = w1(g1, "aabb")
    assert w.past.word == ("a", "a")
    assert w.future.word == ("b", "b")
    assert w.extract((-1,), (1,)).word == ("a", "b")
    with pytest.raises(OutOfBox):
        w.extract((-3,), (0,))


def test_nested_extractions_agree(g3):
    ne = (2, 2)
    for body in enumerate_morphisms(g3, (4, 4))[:40]:
        w = make_window(g3, body, 2)
        from kgraphs.core import subblock

        outer = w.extract((-2, -2), (1, 1))
        assert subblock(outer, (1, 1), (3, 3)) == w.extract((-1, -1), (1, 1))


def test_windows_views_and_brackets_carry_no_instance_dict(g3):
    w = all_windows(g3, 2)[0]
    for v in (w, shift(w, (1, 0)), restrict(w, 1), bracket(w, w)):
        v.body, v.origin, distance(v, v)  # read everything first
        assert not hasattr(v, "__dict__")
        assert type(v).__slots__ == ("skeleton", "N", "key", "_grid", "_source")


def test_a_degree_of_the_wrong_rank_is_named_on_a_window_read(g3):
    w = all_windows(g3, 2)[0]
    for _ in range(2):  # the box is never stored as a plan
        with pytest.raises(ValueError, match=r"expected a length-2 degree vector, got \(-1,\)"):
            w.extract((-1,), (0,))


@pytest.mark.parametrize(
    "call",
    [
        lambda sk, w: dv.as_degree((1.5, 0), sk.k),
        lambda sk, w: dv.as_degree(("1", 0), sk.k),
        lambda sk, w: vertex_matrix(sk, (1.5, 0)),
        lambda sk, w: shift(w, (1.5, 0)),
        lambda sk, w: w.extract((0.5, 0), (1, 1)),
        lambda sk, w: w.extract((0, 0), (1.0, 1)),
    ],
    ids=["as_degree", "as_degree-string", "vertex_matrix", "shift", "extract-m", "extract-n"],
)
def test_degrees_must_have_integer_entries(g3, call):
    with pytest.raises(DegreeMismatch, match="expected a degree vector of integers"):
        call(g3, all_windows(g3, 2)[0])


@pytest.mark.parametrize(
    "call",
    [
        lambda sk, w: make_window(sk, enumerate_morphisms(sk, (3, 3))[0], 1.5),
        lambda sk, w: all_windows(sk, 1.5),
        lambda sk, w: sample_window(sk, 1.5, random.Random(0)),
        lambda sk, w: restrict(w, 1.5),
    ],
    ids=["make_window", "all_windows", "sample_window", "restrict"],
)
def test_window_radii_must_be_integers(g3, call):
    with pytest.raises(DegreeMismatch, match="radius must be an integer, got 1.5"):
        call(g3, all_windows(g3, 2)[0])


def test_integer_types_pass_as_degree_entries_and_radii(g3):
    w = all_windows(g3, 2)[0]
    assert shift(w, (np.int64(1), np.int32(0))) == shift(w, (1, 0))
    assert restrict(w, np.int64(1)) == restrict(w, 1)
    assert dv.as_degree((True, 2), 2) == (1, 2)


def test_window_record_roundtrip(g3):
    w = make_window(g3, enumerate_morphisms(g3, (2, 2))[5], 1)
    rec = w.record()
    assert rec["radius"] == 1 and rec["skeleton"] == g3.digest()
    assert window_from_record(g3, rec) == w


def test_window_record_checks_digest(g1, g2):
    rec = w1(g1, "aabb").record()
    with pytest.raises(GraphMismatch):
        window_from_record(g2, rec)


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------


def test_shift_zero_is_identity(g1):
    w = w1(g1, "abab")
    assert shift(w, (0,)) == w


def test_shift_extracts_the_translated_box(g1):
    w = w1(g1, "aabb")
    s = shift(w, (1,))
    assert s.N == 1
    assert s.body.word == ("b", "b")  # x(0, 2)
    s_back = shift(w, (-1,))
    assert s_back.body.word == ("a", "a")  # x(-2, 0)


def test_shift_radius_exhaustion(g1):
    w = w1(g1, "aabb")
    with pytest.raises(RadiusExhausted):
        shift(w, (2,))


def test_shift_semigroup_exhaustive(g3):
    for body in enumerate_morphisms(g3, (4, 4))[:60]:
        w = make_window(g3, body, 2)
        for a in dv.box((-1, -1), (1, 1)):
            wa = shift(w, a)
            for b in dv.box((-1, -1), (1, 1)):
                if dv.norm_max(b) > wa.N - 1:
                    continue
                lhs = shift(wa, b)
                rhs = shift(w, dv.add(a, b))
                assert restrict(rhs, lhs.N) == lhs


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def test_distance_equal_windows(g1):
    w = w1(g1, "abba")
    d = distance(w, w)
    assert d.indistinguishable and d.rho == 0.0 and d.h == math.inf


def test_distance_origin_mismatch(g2):
    uu = make_morphism(g2, ["uu", "uu"])
    vu_uv = make_morphism(g2, ["vu", "uv"])  # the origin sits at v
    x = make_window(g2, uu, 1)
    y = make_window(g2, vu_uv, 1)
    assert x.origin != y.origin
    d = distance(x, y)
    assert d.h == 0 and d.rho == 1.0


def test_distance_agreement_depth(g1):
    x = w1(g1, "aaaa")
    y = w1(g1, "baab")
    d = distance(x, y, MetricParams(0.5))
    assert d.h == 2 and d.rho == 0.25


def test_distance_needs_equal_radius(g1):
    with pytest.raises(RadiusMismatch):
        distance(w1(g1, "aabb"), w1(g1, "ab", n=1))


def _windows_by_radius(sk, step):
    """Radius-2 windows of sk (a stride of ``all_windows``), unfilled views
    of them (shifts, restrictions, views of views) and brackets, by radius."""
    base = all_windows(sk, 2)[::step]
    zero, one = dv.zero(sk.k), dv.ones(sk.k)
    turn = tuple(1 - 2 * (i % 2) for i in range(sk.k))  # (1, -1, ...)
    brackets = [bracket(x, y) for x in base[:6] for y in base[-6:] if x.origin == y.origin]
    return {
        2: base + [shift(w, zero) for w in base] + brackets,
        1: [shift(w, one) for w in base]
        + [restrict(w, 1) for w in base]
        + [shift(shift(w, zero), turn) for w in base]
        + [shift(z, dv.neg(one)) for z in brackets],
    }


@pytest.mark.parametrize("name, step", [("g3", 9), ("g2", 1)])
def test_distance_and_origin_follow_their_definitions(request, name, step):
    # read on unfilled windows first, against the definitions read off a
    # second copy of the same windows
    sk = request.getfixturevalue(name)
    got, ref = _windows_by_radius(sk, step), _windows_by_radius(sk, step)
    for N, windows in got.items():
        origins = [w.origin for w in windows]
        dist = [[distance(x, y).h for y in windows] for x in windows]
        boxes = [[w.extract(dv.scaled(-j, sk.k), dv.scaled(j, sk.k)) for j in range(1, N + 1)]
                 for w in ref[N]]
        assert origins == [w.extract(dv.zero(sk.k), dv.zero(sk.k)).range for w in ref[N]]
        for i, x in enumerate(ref[N]):
            for h, y in enumerate(ref[N]):
                agree = len(list(itertools.takewhile(bool, map(operator.eq, boxes[i], boxes[h]))))
                if x.origin != y.origin:
                    want = 0
                else:
                    want = math.inf if agree == N else 1 + agree
                assert dist[i][h] == want, (x, y)


def test_metric_params_validate():
    with pytest.raises(ValueError):
        MetricParams(1.0)


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------


def test_bracket_is_idempotent_on_diagonal(g1):
    w = w1(g1, "abab")
    assert bracket(w, w) == w


def test_bracket_glues_past_and_future(g1):
    x = w1(g1, "aaaa")
    y = w1(g1, "bbbb")
    z = bracket(x, y)
    assert z.body.word == ("a", "a", "b", "b")


def test_bracket_single_composition_at_radius_one(g3):
    windows = all_windows(g3, 1)
    for x in windows[:10]:
        for y in windows[:10]:
            z = bracket(x, y)
            assert z.body == compose(x.past, y.future)


def test_bracket_requires_shared_origin(g2):
    x = make_window(g2, make_morphism(g2, ["uu", "uu"]), 1)
    y = make_window(g2, make_morphism(g2, ["vu", "uv"]), 1)
    with pytest.raises(NotBracketable):
        bracket(x, y)


def test_bracket_uniqueness_at_window_scale(g1, g3):
    for sk, n in ((g1, 2), (g3, 2)):
        windows = all_windows(sk, n)
        seen = {}
        for w in windows:
            key = (w.past, w.future)
            assert key not in seen, "two windows share past and future"
            seen[key] = w
        for x in windows[:20]:
            for y in windows[:20]:
                if x.origin != y.origin:
                    continue
                assert seen[(x.past, y.future)] == bracket(x, y)


# ---------------------------------------------------------------------------
# local product structure
# ---------------------------------------------------------------------------


def test_local_product_g1(g1):
    lp = local_product_enum(g1, "v", 2)
    assert len(lp.future_fiber) == 4 and len(lp.past_fiber) == 4
    assert lp.window_count == 16 and lp.check


def test_local_product_g4(g4):
    lp = local_product_enum(g4, "v", 3)
    assert len(lp.future_fiber) == 1 and len(lp.past_fiber) == 1
    assert lp.window_count == 1 and lp.check


def test_local_product_g2(g2):
    lp = local_product_enum(g2, "u", 1)
    assert len(lp.future_fiber) == 2 and len(lp.past_fiber) == 2
    assert lp.window_count == 4 and lp.check


# ---------------------------------------------------------------------------
# expansiveness and contraction at window scale
# ---------------------------------------------------------------------------


def test_expansiveness_epsilon_r(g1, g2):
    params = MetricParams(0.5)
    for sk in (g1, g2):
        windows = all_windows(sk, 2)
        for i, x in enumerate(windows):
            for y in windows[i + 1 :]:
                assert any(
                    distance(shift(x, (m,)), shift(y, (m,)), params).rho >= params.r
                    for m in (-1, 0, 1)
                )


def test_contraction_on_shared_future(g1):
    params = MetricParams(0.5)
    windows = all_windows(g1, 2)
    for x in windows:
        for y in windows:
            if x.future != y.future:
                continue
            rho0 = distance(x, y, params).rho
            rho1 = distance(shift(x, (1,)), shift(y, (1,)), params).rho
            assert rho1 <= params.r * rho0 + 1e-15
    for x in windows:
        for y in windows:
            if x.past != y.past:
                continue
            rho0 = distance(x, y, params).rho
            rho1 = distance(shift(x, (-1,)), shift(y, (-1,)), params).rho
            assert rho1 <= params.r * rho0 + 1e-15


# ---------------------------------------------------------------------------
# mixing lag
# ---------------------------------------------------------------------------


def test_mixing_lag_g1(g1):
    u = CylinderSet(make_morphism(g1, ["a"]), (0,))
    v = CylinderSet(make_morphism(g1, ["b"]), (0,))
    lag = mixing_lag(g1, u, v, classify_connectivity(g1, (8,)))
    assert lag.Q == (2,) and lag.threshold == (1,) and lag.verified


def test_mixing_lag_degree_zero(g1):
    from kgraphs.core import identity

    z = CylinderSet(identity(g1, "v"), (0,))
    lag = mixing_lag(g1, z, z, classify_connectivity(g1, (8,)))
    assert lag.Q == (1,) and lag.verified


def test_mixing_lag_g2(g2):
    u = CylinderSet(make_morphism(g2, ["uu"]), (0,))
    v = CylinderSet(make_morphism(g2, ["uv"]), (0,))
    lag = mixing_lag(g2, u, v, classify_connectivity(g2, (8,)))
    assert lag.Q == (3,) and lag.verified


def test_mixing_needs_primitive():
    from kgraphs.core import ColoredEdge, Skeleton, identity

    two_cycle = Skeleton(
        1,
        ("u", "v"),
        (ColoredEdge("e", 0, "v", "u"), ColoredEdge("f", 0, "u", "v")),
        (),
    )
    # positive degrees (i, 0), but no box above one stays positive
    blue_loop = Skeleton(2, ("u",), (ColoredEdge("b", 0, "u", "u"),), ())
    for sk in (two_cycle, blue_loop):
        z = CylinderSet(identity(sk, "u"), dv.zero(sk.k))
        with pytest.raises(NotPrimitive):
            mixing_lag(sk, z, z, classify_connectivity(sk, dv.scaled(8, sk.k)))


def test_mixing_lag_random_pairs(g1, g2):
    rng = random.Random(5)
    for sk in (g1, g2):
        pool = enumerate_morphisms(sk, (1,)) + enumerate_morphisms(sk, (2,))
        cc = classify_connectivity(sk, (8,))
        for _ in range(20):
            u = CylinderSet(rng.choice(pool), (rng.randint(-2, 2),))
            v = CylinderSet(rng.choice(pool), (rng.randint(-2, 2),))
            assert mixing_lag(sk, u, v, cc).verified


def test_connecting_morphism(g2):
    m = connecting_morphism(g2, "u", "v", (3,))
    assert m is not None and m.range == "u" and m.source == "v" and m.degree == (3,)
    assert connecting_morphism(g2, "v", "v", (1,)) is None  # no v -> v edge


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_window_uniform_is_deterministic(g3):
    a = [sample_window(g3, 2, random.Random(9)) for _ in range(10)]
    b = [sample_window(g3, 2, random.Random(9)) for _ in range(10)]
    assert a == b
    assert all(w.body.degree == (4, 4) for w in a)


def test_sample_window_parry_start_frequencies(g2):
    pd = perron_data(g2)
    rng = random.Random(13)
    hits = {"u": 0, "v": 0}
    n = 4000
    for _ in range(n):
        w = sample_window_parry(pd, 1, rng)
        hits[w.body.range] += 1
    expect_u = pd.a["u"] * pd.b["u"]
    assert abs(hits["u"] / n - expect_u) < 0.03
