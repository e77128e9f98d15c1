"""Stable/unstable/asymptotic predicates and the semidirect product."""

import random

import pytest

from kgraphs import degrees as dv
from kgraphs.core import enumerate_morphisms, make_morphism, sample_morphism, subblock
from kgraphs.dynamics import all_windows, make_window, restrict, shift
from kgraphs.errors import (
    NotComposableInGroupoid,
    OutOfBox,
    RadiusMismatch,
)
from kgraphs.relations import (
    GroupoidElement,
    RelationQuery,
    _stably_related_somewhere,
    asymptotic_equiv,
    restriction_map,
    semidirect_compose,
    stable_equiv,
    unstable_equiv,
    window_op,
)


def w1(g1, word, n=2):
    return make_window(g1, make_morphism(g1, list(word)), n)


# ---------------------------------------------------------------------------
# stable / unstable / asymptotic
# ---------------------------------------------------------------------------


def test_diagonal_is_stable(g1):
    x = w1(g1, "abab")
    for m in (-2, -1, 0, 1, 2):
        assert stable_equiv(RelationQuery(x, x, (m,)))
        assert unstable_equiv(RelationQuery(x, x, (m,)))
        if m >= 0:
            assert asymptotic_equiv(x, x, (m,))


def test_stable_from_the_right_box(g1):
    x = w1(g1, "aabb")
    y = w1(g1, "babb")  # differs only on the block left of -1
    assert stable_equiv(RelationQuery(x, y, (-1,)))
    assert not stable_equiv(RelationQuery(x, y, (-2,)))


def test_stable_nesting_is_monotone(g1, g3):
    # exhaustive on g1; a fixed slice on g3, whose full sweep runs in the
    # acceptance suite via the signature tables
    for sk, windows in ((g1, all_windows(g1, 2)), (g3, all_windows(g3, 2)[::7])):
        one = dv.ones(sk.k)
        ne = dv.scaled(2, sk.k)
        for x in windows:
            for y in windows:
                for m in dv.box(dv.neg(one), one):
                    if not stable_equiv(RelationQuery(x, y, m)):
                        continue
                    for m2 in dv.box(m, ne):
                        assert stable_equiv(RelationQuery(x, y, m2))


def test_unstable_routes_agree_exhaustively(g1):
    # unstable at m is stable at -m for the opposite windows
    windows = all_windows(g1, 2)
    ops = [window_op(w) for w in windows]
    for x, xo in zip(windows, ops):
        for y, yo in zip(windows, ops):
            for m in (-1, 0, 1):
                assert unstable_equiv(RelationQuery(x, y, (m,))) == stable_equiv(
                    RelationQuery(xo, yo, (-m,))
                )


def test_unstable_shares_the_past(g3):
    windows = all_windows(g3, 1)
    for x in windows:
        for y in windows:
            same_past = x.past == y.past
            assert unstable_equiv(RelationQuery(x, y, (0, 0))) == same_past


def test_asymptotic_needs_both_tails(g1):
    x = w1(g1, "aaaa")
    inner = w1(g1, "abba")  # differs only strictly inside (-m, m) for m = 1
    assert asymptotic_equiv(x, inner, (1,))
    edge = w1(g1, "aaab")  # differs at the box edge
    assert not asymptotic_equiv(x, edge, (1,))


def test_asymptotic_is_stable_and_unstable(g3):
    windows = all_windows(g3, 1)
    for x in windows:
        for y in windows:
            for m in dv.box((0, 0), (1, 1)):
                both = stable_equiv(RelationQuery(x, y, m)) and unstable_equiv(
                    RelationQuery(x, y, dv.neg(m))
                )
                assert asymptotic_equiv(x, y, m) == both


def test_relation_preconditions(g1):
    x = w1(g1, "aabb")
    y = w1(g1, "ab", n=1)
    with pytest.raises(RadiusMismatch):
        stable_equiv(RelationQuery(x, y, (0,)))
    z = w1(g1, "abab")
    # past either end of the box, the window's own extraction raises
    for end in ((-3,), (3,)):
        with pytest.raises(OutOfBox):
            stable_equiv(RelationQuery(x, z, end))
        with pytest.raises(OutOfBox):
            unstable_equiv(RelationQuery(x, z, end))
    with pytest.raises(OutOfBox):
        asymptotic_equiv(x, z, (-1,))
    with pytest.raises(OutOfBox):
        asymptotic_equiv(x, z, (3,))


# ---------------------------------------------------------------------------
# restriction map and the opposite involution
# ---------------------------------------------------------------------------


def test_restriction_map_returns_the_future(g1):
    w = w1(g1, "aabb")
    assert restriction_map(w).word == ("b", "b")


def test_restriction_intertwines_shift(g3):
    # pi(sigma^p x) = sigma^p pi(x) wherever the radius permits
    from kgraphs.core import subblock

    for body in enumerate_morphisms(g3, (4, 4))[:50]:
        w = make_window(g3, body, 2)
        for p in dv.box((0, 0), (1, 1)):
            lhs = restriction_map(shift(w, p))
            n2 = 2 - dv.norm_max(p)
            rhs = subblock(restriction_map(w), p, dv.add(p, dv.scaled(n2, 2)))
            assert lhs == rhs


def test_window_op_is_involutive_and_swaps(g1, g3):
    for sk, n in ((g1, 2), (g3, 1)):
        windows = all_windows(sk, n)
        one = dv.ones(sk.k)
        for x in windows:
            assert window_op(window_op(x)) == x
        for x in windows:
            for y in windows:
                for m in dv.box(dv.neg(one), one):
                    assert unstable_equiv(RelationQuery(x, y, m)) == stable_equiv(
                        RelationQuery(window_op(x), window_op(y), dv.neg(m))
                    )
                    assert stable_equiv(RelationQuery(x, y, m)) == unstable_equiv(
                        RelationQuery(window_op(x), window_op(y), dv.neg(m))
                    )


# ---------------------------------------------------------------------------
# semidirect product
# ---------------------------------------------------------------------------


def test_semidirect_unit(g1):
    x = w1(g1, "abab")
    z = w1(g1, "abba")
    g = GroupoidElement((x, z), (1,))
    out = semidirect_compose(GroupoidElement((x, x), (0,)), g)
    assert out.n == (1,)
    assert out.pair[0] == x and out.pair[1] == z


def test_semidirect_shift_cancellation(g1):
    # n = 1 then m = -1 lands back at shift component 0
    x = w1(g1, "aaab")
    y = w1(g1, "abab")
    y_sh = shift(y, (1,))
    z_big = w1(g1, "abba")
    z_sh = shift(z_big, (1,))
    g_1 = GroupoidElement((x, y), (1,))
    g_2 = GroupoidElement(
        (make_window(g1, make_morphism(g1, list("ba" + "bb")), 2), z_big), (-1,)
    )
    # middle window must equal shift(y, 1) = window of 'ba' at radius 1
    assert restrict(g_2.pair[0], 1) == y_sh
    out = semidirect_compose(g_1, g_2)
    assert out.n == (0,)
    assert out.pair[1] == shift(z_big, (-1,))


def test_semidirect_rejects_wrong_middle(g1):
    x = w1(g1, "aaaa")
    y = w1(g1, "abab")
    wrong = w1(g1, "bbbb")
    g_1 = GroupoidElement((x, y), (1,))
    g_2 = GroupoidElement((wrong, x), (0,))
    with pytest.raises(NotComposableInGroupoid):
        semidirect_compose(g_1, g_2)


def test_semidirect_associativity_on_g1(g1):
    import itertools

    windows = all_windows(g1, 4)[:12]
    one = (1,)
    for x, z, w in itertools.product(windows[:4], repeat=3):
        g_1 = GroupoidElement((x, x), one)
        mid = shift(x, one)
        g_2 = GroupoidElement((mid, mid), (-1,))
        g_3 = GroupoidElement((x, z), (0,))
        lhs = semidirect_compose(semidirect_compose(g_1, g_2), g_3)
        rhs = semidirect_compose(g_1, semidirect_compose(g_2, g_3))
        assert lhs.n == rhs.n
        r = min(lhs.pair[0].N, rhs.pair[0].N)
        assert restrict(lhs.pair[0], r) == restrict(rhs.pair[0], r)
        assert restrict(lhs.pair[1], r) == restrict(rhs.pair[1], r)


@pytest.mark.parametrize("name", ["g2", "g3"])
def test_predicates_read_the_right_box_across_grids(name, request):
    # x is a radius-2 window built from its body; y is a radius-2 view cut
    # at one of 3^k centers of a radius-3 window.  Every predicate must
    # agree with extract(..) == extract(..), and both with subblock on the
    # bodies the windows stand for, at every offset, point boxes included
    sk = request.getfixturevalue(name)
    k = sk.k
    ne = dv.scaled(2, k)
    xs = all_windows(sk, 2)
    rng = random.Random(5)
    pairs = []
    for big in [sample_morphism(sk, dv.scaled(6, k), rng) for _ in range(3)]:
        w = make_window(sk, big, 3)
        for c in dv.box(dv.scaled(-1, k), dv.ones(k)):
            y = restrict(shift(w, c), 2)
            body = subblock(big, dv.add(dv.ones(k), c), dv.add(dv.scaled(5, k), c))
            for x in [make_window(sk, body, 2)] + rng.sample(xs, 3):
                pairs.append((x, y, body))

    def agree(x, y, body, m, n):
        lo, hi = dv.add(m, ne), dv.add(n, ne)
        want = subblock(x.body, lo, hi) == subblock(body, lo, hi)
        assert (x.extract(m, n) == y.extract(m, n)) == want, (x, y, m, n)
        return want

    answers = set()
    for x, y, body in pairs:
        for m in dv.box(dv.neg(ne), ne):
            tail = agree(x, y, body, m, ne)
            assert stable_equiv(RelationQuery(x, y, m)) == tail
            assert unstable_equiv(RelationQuery(x, y, m)) == agree(x, y, body, dv.neg(ne), m)
            if dv.is_nonneg(m):
                both = tail and agree(x, y, body, dv.neg(ne), dv.neg(m))
                assert asymptotic_equiv(x, y, m) == both
            answers.add(tail)
        assert _stably_related_somewhere(x, y) == agree(x, y, body, ne, ne)
    assert answers == {True, False}
