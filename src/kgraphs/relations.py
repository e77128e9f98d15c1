"""Stable, unstable and asymptotic equivalence at window scale.

Every predicate quantifies only over boxes inside the window; a True
answer certifies membership of common extensions up to the box and
nothing beyond it.  The unstable relation is the stable one seen through
the opposite-graph involution: (x, y) agree on every box ending at m
exactly when (x^op, y^op) agree on every box starting at -m.  The suite
checks ``unstable_equiv`` against ``stable_equiv`` on ``window_op``
windows.

The predicates compare raw block reads (``Window._read``: the word of the
block, or the vertex for a point box) through the windows' compiled read
plans, and build no ``Morphism``.  Once ``_check_pair`` has matched the
skeleton and the radius, the two reads are of one box at one degree, so
they are equal exactly when the blocks are.  An offset outside the box
raises ``OutOfBox`` from the window's read plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import degrees as dv
from .core import Morphism, opposite_morphism
from .degrees import Degree
from .dynamics import Window, restrict, shift
from .errors import (
    GraphMismatch,
    NotComposableInGroupoid,
    OutOfBox,
    RadiusMismatch,
)


@dataclass(frozen=True)
class RelationQuery:
    x: Window
    y: Window
    m: Degree


def _check_pair(x: Window, y: Window) -> None:
    if x.skeleton != y.skeleton:
        raise GraphMismatch("windows live over different skeletons")
    if x.N != y.N:
        raise RadiusMismatch(f"radii differ: {x.N} != {y.N}")


def stable_equiv(q: RelationQuery) -> bool:
    """Window-scale membership of (x, y) in G_{s,m}: agreement on every
    box [m, n] up to the window edge.  Equivalent to agreement of the
    single maximal block x(m, Ne), by nested-extraction consistency."""
    _check_pair(q.x, q.y)
    k = q.x.skeleton.k
    m = dv.as_degree(q.m, k)
    ne = dv.scaled(q.x.N, k)
    return q.x._read(m, ne) == q.y._read(m, ne)


def unstable_equiv(q: RelationQuery) -> bool:
    """Agreement on every box [m, n] with n <= q.m (here q.m is the right
    endpoint).  Equivalent to agreement of the single maximal block
    x(-Ne, q.m), by nested-extraction consistency."""
    _check_pair(q.x, q.y)
    k = q.x.skeleton.k
    n0 = dv.as_degree(q.m, k)
    ne = dv.scaled(q.x.N, k)
    lo = dv.neg(ne)
    return q.x._read(lo, n0) == q.y._read(lo, n0)


def asymptotic_equiv(x: Window, y: Window, m: Degree) -> bool:
    """Double-tail agreement: x(m, n) = y(m, n) and x(-n, -m) = y(-n, -m)
    for every n up to the window edge, m >= 0."""
    _check_pair(x, y)
    k = x.skeleton.k
    m = dv.as_degree(m, k)
    if not dv.is_nonneg(m):
        raise OutOfBox(f"asymptotic offset must be in N^k, got {m}")
    ne = dv.scaled(x.N, k)
    neg_ne, neg_m = dv.neg(ne), dv.neg(m)
    return x._read(m, ne) == y._read(m, ne) and x._read(neg_ne, neg_m) == y._read(neg_ne, neg_m)


def restriction_map(x: Window) -> Morphism:
    """pi(x): the one-sided window x(0, Ne)."""
    return x.future


def window_op(w: Window) -> Window:
    """The involution x -> x^op: x^op(m, n) = x(-n, -m) reversed, over the
    opposite skeleton."""
    return Window(w.N, opposite_morphism(w.body))


# ---------------------------------------------------------------------------
# Semidirect product elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupoidElement:
    """((x, y), n): a stably related pair with a shift component."""

    pair: tuple[Window, Window]
    n: Degree


def _stably_related_somewhere(x: Window, y: Window) -> bool:
    # by nesting, existence of a good box reduces to the weakest one,
    # agreement at the top corner
    k = x.skeleton.k
    ne = dv.scaled(x.N, k)
    return x._read(ne, ne) == y._read(ne, ne)


def semidirect_compose(g1: GroupoidElement, g2: GroupoidElement) -> GroupoidElement:
    """((x, y), n) ((sigma^n y, sigma^n z), m) = ((x, z), n + m).

    The middle windows must match after shifting by n (compared at their
    common radius) and each pair must be stably related within its box.
    """
    x, y = g1.pair
    y2, z2 = g2.pair
    _check_pair(x, y)
    _check_pair(y2, z2)
    if x.skeleton != y2.skeleton:
        raise GraphMismatch("groupoid elements live over different skeletons")
    shifted = shift(y, g1.n)
    common = min(shifted.N, y2.N)
    if restrict(shifted, common) != restrict(y2, common):
        raise NotComposableInGroupoid("middle window is not the shift of y by n")
    if not (_stably_related_somewhere(x, y) and _stably_related_somewhere(y2, z2)):
        raise NotComposableInGroupoid("pairs are not stably related within the box")
    z = shift(z2, dv.neg(g1.n))
    out_n = dv.add(g1.n, g2.n)
    radius = min(x.N, z.N)
    return GroupoidElement((restrict(x, radius), restrict(z, radius)), out_n)
