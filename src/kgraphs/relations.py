"""Stable, unstable and asymptotic equivalence at window scale.

Every predicate quantifies only over boxes inside the window; a True
answer certifies membership of common extensions up to the box and
nothing beyond it.  Each relation's box is defined once, here: the stable
box at m is [m, Ne] (``_stable_box``), the unstable box at n is [-Ne, n]
(``_unstable_box``), and the asymptotic relation at m reads the stable box
at m and the unstable box at -m.  The predicates compare one pair of
windows on these boxes; ``_stable_classes`` and ``_unstable_classes``
partition a list of windows on the same boxes, and the battery reads the
relations through them.  The unstable relation is the stable one seen
through the opposite-graph involution: (x, y) agree on every box ending
at m exactly when (x^op, y^op) agree on every box starting at -m.  The
battery's ``relation-opposite-swap`` compares the unstable partition of
the swept windows with the stable partition of their ``window_op``
windows.

The predicates compare raw block reads (``Window._read``: the word of the
block, or the vertex for a point box; ``dynamics._block_tokens`` is its
batch form) through the windows' compiled read plans, and build no
``Morphism``.  Once ``_check_pair`` has matched the skeleton and the
radius, the two reads are of one box at one degree, so they are equal
exactly when the blocks are.  An offset outside the box raises
``OutOfBox`` from the window's read plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import degrees as dv
from .core import Morphism, opposite_morphism
from .degrees import Degree
from .dynamics import Window, _block_tokens, restrict, shift
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


def _stable_box(x: Window, m: Degree) -> tuple[Degree, Degree]:
    """The box of G_{s,m}: [m, Ne].  Agreement on every box [m, n] up to
    the window edge is agreement on this one, by nested-extraction
    consistency."""
    return m, dv.scaled(x.N, x.skeleton.k)


def _unstable_box(x: Window, n: Degree) -> tuple[Degree, Degree]:
    """The box of G_{u,n}: [-Ne, n], the widest box ending at n."""
    return dv.neg(dv.scaled(x.N, x.skeleton.k)), n


def _agree(x: Window, y: Window, box: tuple[Degree, Degree]) -> bool:
    return x._read(*box) == y._read(*box)


def stable_equiv(q: RelationQuery) -> bool:
    """Window-scale membership of (x, y) in G_{s,m}: agreement on every
    box [m, n] up to the window edge."""
    _check_pair(q.x, q.y)
    return _agree(q.x, q.y, _stable_box(q.x, dv.as_degree(q.m, q.x.skeleton.k)))


def unstable_equiv(q: RelationQuery) -> bool:
    """Agreement on every box [m, n] with n <= q.m (here q.m is the right
    endpoint)."""
    _check_pair(q.x, q.y)
    return _agree(q.x, q.y, _unstable_box(q.x, dv.as_degree(q.m, q.x.skeleton.k)))


def asymptotic_equiv(x: Window, y: Window, m: Degree) -> bool:
    """Double-tail agreement: x(m, n) = y(m, n) and x(-n, -m) = y(-n, -m)
    for every n up to the window edge, m >= 0."""
    _check_pair(x, y)
    m = dv.as_degree(m, x.skeleton.k)
    if not dv.is_nonneg(m):
        raise OutOfBox(f"asymptotic offset must be in N^k, got {m}")
    return _agree(x, y, _stable_box(x, m)) and _agree(x, y, _unstable_box(x, dv.neg(m)))


def _stable_classes(windows: list[Window], m: Degree) -> list[int]:
    """G_{s,m} on windows of one skeleton and radius, as class tokens:
    tok[i] == tok[j] exactly when windows i and j are stably equivalent at m."""
    return _block_tokens(windows, *_stable_box(windows[0], m))


def _unstable_classes(windows: list[Window], n: Degree) -> list[int]:
    """G_{u,n} on windows of one skeleton and radius, as class tokens."""
    return _block_tokens(windows, *_unstable_box(windows[0], n))


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
    # the stable box at the top corner
    return _agree(x, y, _stable_box(x, dv.scaled(x.N, x.skeleton.k)))


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
