"""Vertex matrices, connectivity classes, Perron data and AF tower blocks.

Vertex matrices are exact: entries are Python ints, so arbitrarily large
path counts never overflow.  They come from the counting engine in core:
one matrix is a product of the binary powers M_c^(2^j) of the generator
matrices, the only matrices a skeleton keeps.  Connectivity steps the
diagonal corners of its search box one sparse generator step at a time and
builds one box table, up to the first positive corner, which it drops on
return.  Floating point enters only in the Perron eigendata, which is
computed by power iteration on I + sum_c M_c read straight from the edge
list.  The eigendata are lists of floats, and every sum, dot product and
norm is taken with ``math.fsum``, which rounds exactly, so they depend on
no linear-algebra kernel and no Python version.

The aperiodicity probe tests a path for a period p by reading two boxes of
its grid through the grid's read plans: [lo, hi], lo = join(0, -p) and
hi = (depth+1)e - join(0, p), which holds every unit edge whose translate
by p lies in the grid, and [lo + p, hi + p].  The path is p-invariant when
the two normal-form words are equal.  A word fixes the path on its box by
unique factorisation, so the probe assumes a skeleton that passes
``validate_skeleton``.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import degrees as dv
from .core import (
    IntMatrix,
    Morphism,
    Skeleton,
    Vertex,
    _box_table,
    _generator_matrix,
    _identity_rows,
    _step_rows,
    _vm,
    count_morphisms,
    enumerate_morphisms,
    grid_shape,
    unit_grid,
)
from .degrees import Degree
from .errors import (
    DegreeMismatch,
    GraphMismatch,
    NotConverged,
    NotIrreducible,
    ValidationFailure,
)


@dataclass(frozen=True)
class VertexMatrix:
    """|Lambda^p|: exact morphism counts indexed by (range, source) vertex."""

    degree: Degree
    vertices: tuple[Vertex, ...]
    entries: IntMatrix

    @functools.cached_property
    def _index(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def entry(self, u: Vertex, v: Vertex) -> int:
        return self.entries[self._index[u]][self._index[v]]

    def transpose(self) -> "VertexMatrix":
        n = len(self.vertices)
        t = tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n))
        return VertexMatrix(self.degree, self.vertices, t)

    def is_positive(self) -> bool:
        return all(x > 0 for row in self.entries for x in row)

    def column_sums(self) -> dict[Vertex, int]:
        n = len(self.vertices)
        return {
            v: sum(self.entries[i][j] for i in range(n))
            for j, v in enumerate(self.vertices)
        }


def vertex_matrix(sk: Skeleton, p: Degree) -> VertexMatrix:
    """|Lambda^p| as a product of binary powers of the color-generator
    matrices, exact."""
    p = dv.as_nonneg_degree(p, sk.k)
    return VertexMatrix(p, sk.vertices, _vm(sk, p))


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectivityClass:
    irreducible: bool
    primitive: bool
    #: minimal bound found with |Lambda^m| > 0 for every tested m >= threshold
    threshold: Degree | None
    #: True when primitivity could not be decided within the search bound
    inconclusive: bool
    search_bound: Degree


def _is_irreducible(sk: Skeleton) -> bool:
    # every ordered pair (u, v) is joined by a path of length >= 1 exactly
    # when one vertex reaches every vertex, itself included, in one or more
    # steps both along the edges and against them: u then reaches v via it
    succ: dict[Vertex, list[Vertex]] = {v: [] for v in sk.vertices}
    pred: dict[Vertex, list[Vertex]] = {v: [] for v in sk.vertices}
    for e in sk.edges:
        succ[e.range].append(e.source)
        pred[e.source].append(e.range)
    for step in (succ, pred):
        reached: set[Vertex] = set()
        frontier = list(step[sk.vertices[0]])
        while frontier:
            w = frontier.pop()
            if w not in reached:
                reached.add(w)
                frontier.extend(step[w])
        if len(reached) != len(sk.vertices):
            return False
    return True


def classify_connectivity(sk: Skeleton, search_bound: Degree) -> ConnectivityClass:
    """Exact irreducibility, and the least m in (norm_max, total, m) order
    with |Lambda^n| > 0 for every n in [m, bound].

    The corners meet(c e, bound), c = 1, 2, ..., are stepped one sparse
    generator step per color.  A positive corner has every generator as a
    factor, so (the generators commuting) none has a zero row or column,
    and every degree above a positive one is positive: the qualifying
    degrees are the positive ones.  None has a norm below the first
    positive corner's c, whose corner would be positive, so one table of
    that corner's box holds the threshold.

    The generators commute once the squares biject, which
    ``validate_skeleton`` checks; an unvalidated skeleton whose generators
    do not commute raises ``ValidationFailure``.
    """
    bound = dv.as_degree(search_bound, sk.k)
    if not dv.leq(dv.ones(sk.k), bound):
        raise DegreeMismatch(f"search bound {bound} must be >= e")
    gens = [_generator_matrix(sk, c) for c in range(sk.k)]
    for c in range(sk.k):
        for d in range(c + 1, sk.k):
            if _step_rows(sk, c, gens[d]) != _step_rows(sk, d, gens[c]):
                raise ValidationFailure(f"generator matrices M_{c} and M_{d} do not commute")
    irreducible = _is_irreducible(sk)
    threshold = None
    rows = _identity_rows(len(sk.vertices))
    for c in range(1, max(bound) + 1):
        for i in range(sk.k):
            if bound[i] >= c:
                rows = _step_rows(sk, i, rows)
        if all(map(all, rows)):  # entries are counts: nonzero is positive
            table = _box_table(sk, dv.meet(dv.scaled(c, sk.k), bound))
            threshold = min(
                (m for m, m_rows in table.items() if dv.norm_max(m) == c and all(map(all, m_rows))),
                key=lambda m: (dv.total(m), m),
            )
            break
    return ConnectivityClass(
        irreducible=irreducible,
        primitive=threshold is not None,
        threshold=threshold,
        inconclusive=irreducible and threshold is None,
        search_bound=bound,
    )


# ---------------------------------------------------------------------------
# Perron data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerronData:
    """Common Perron eigendata of the vertex matrices.

    t[i] is the eigenvalue of |Lambda^{e_i}| on the positive right
    eigenvector b; a is the matching left eigenvector, scaled so that
    sum_v a(v) b(v) = 1.
    """

    skeleton: Skeleton = field(repr=False)
    t: tuple[float, ...]
    a: dict[Vertex, float]
    b: dict[Vertex, float]
    residual: float
    normalization_deviation: float

    def t_power(self, p: Degree) -> float:
        """t^p for p in Z^k, multiplied in color order."""
        if len(p) != len(self.t):
            raise DegreeMismatch(f"degree {tuple(p)} does not have rank {len(self.t)}")
        return math.prod(map(pow, self.t, p))

    def require_same_graph(self, m: Morphism) -> None:
        if m.skeleton != self.skeleton:
            raise GraphMismatch("morphism belongs to a different skeleton")


def _dot(x: Sequence[float], y: Sequence[float]) -> float:
    return math.fsum(map(operator.mul, x, y))


def _sums(lists: Sequence[Sequence[int]], x: list[float]) -> list[float]:
    """Per entry of ``lists``, the sum of x over its indices."""
    at = x.__getitem__
    return [math.fsum(map(at, indices)) for indices in lists]


#: steps a power iteration takes before it gives up
POWER_STEPS = 200_000


def _power_iteration(lists: list[list[int]], tol: float) -> list[float]:
    """The Perron vector, scaled to max 1, of the matrix whose row i sums
    the entries at the indices ``lists[i]``.  Stops once the scaled
    iterate moves by at most tol / 10: a residual relative to the
    eigenvalue stops too early on a small spectral gap."""
    v = [1.0] * len(lists)
    for _ in range(POWER_STEPS):
        w = _sums(lists, v)
        top = max(w)
        w = [x / top for x in w]
        if max(map(abs, map(operator.sub, w, v))) <= tol / 10:
            return w
        v = w
    raise NotConverged(f"power iteration moved by more than {tol / 10} after {POWER_STEPS} steps")


def perron_data(sk: Skeleton, tol: float = 1e-12) -> PerronData:
    """Perron vector t and eigenfunctions a, b for an irreducible graph.

    b and a are the right and left Perron vectors of I + sum_c M_c, which
    is primitive when the graph is irreducible and shares the Perron
    vectors of sum_c M_c; power iteration reads its rows (u and the
    sources of the edges into u) and columns off the edge list.  t_c is the
    mean of the ratios (M_c b)(u) / b(u); the residual is the largest
    deviation from t_c of these and of the ratios (a M_c)(v) / a(v).
    """
    if not _is_irreducible(sk):
        raise NotIrreducible("graph is not irreducible")
    nv = len(sk.vertices)
    idx = sk._vertex_index
    sources = sk._sources  # per color and vertex, the sources of its in-edges
    ranges: list[list[list[int]]] = [[[] for _ in range(nv)] for _ in range(sk.k)]
    for e in sk.edges:
        ranges[e.color][idx[e.source]].append(idx[e.range])
    b_vec = _power_iteration([[u, *(s for c in sources for s in c[u])] for u in range(nv)], tol)
    a_vec = _power_iteration([[v, *(r for c in ranges for r in c[v])] for v in range(nv)], tol)
    residual = 0.0
    ts: list[float] = []
    for c in range(sk.k):
        ratios_b = list(map(operator.truediv, _sums(sources[c], b_vec), b_vec))
        ratios_a = list(map(operator.truediv, _sums(ranges[c], a_vec), a_vec))
        ti = math.fsum(ratios_b) / nv
        ts.append(ti)
        residual = max(residual, *(abs(x - ti) for x in ratios_b + ratios_a))
    # sum a(v) b(v) = 1 leaves one scaling free; balance the 2-norms so
    # that a = b whenever sum_c M_c is symmetric
    pairing = _dot(a_vec, b_vec)
    na = math.sqrt(_dot(a_vec, a_vec))
    nb = math.sqrt(_dot(b_vec, b_vec))
    scale_a, scale_b = math.sqrt(nb / (na * pairing)), math.sqrt(na / (nb * pairing))
    a_vec = [x * scale_a for x in a_vec]
    b_vec = [x * scale_b for x in b_vec]
    return PerronData(
        skeleton=sk,
        t=tuple(ts),
        a=dict(zip(sk.vertices, a_vec)),
        b=dict(zip(sk.vertices, b_vec)),
        residual=residual,
        normalization_deviation=abs(_dot(a_vec, b_vec) - 1.0),
    )


# ---------------------------------------------------------------------------
# AF tower blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AFData:
    """Block dimensions of F_m and the multiplicity of F_m into F_{m+n}."""

    block_dims: dict[Vertex, int]
    multiplicity: VertexMatrix
    predicted_next: dict[Vertex, int]
    next_dims: dict[Vertex, int]
    consistent: bool


def af_multiplicities(sk: Skeleton, m: Degree, n: Degree) -> AFData:
    """dim of the v-block of F_m (paths of degree m into v) and the
    inclusion multiplicity |Lambda^n|, with the m+n consistency check."""
    m = dv.as_degree(m, sk.k)
    n = dv.as_degree(n, sk.k)
    if not (dv.is_nonneg(m) and dv.is_nonneg(n)) or dv.is_zero(n):
        raise DegreeMismatch("need m >= 0 and n > 0")
    dims = vertex_matrix(sk, m).column_sums()
    mult = vertex_matrix(sk, n)
    row = [dims[w] for w in sk.vertices]
    columns = zip(sk.vertices, zip(*mult.entries))
    predicted = {v: sum(map(operator.mul, row, col)) for v, col in columns}
    next_dims = vertex_matrix(sk, dv.add(m, n)).column_sums()
    return AFData(
        block_dims=dims,
        multiplicity=mult,
        predicted_next=predicted,
        next_dims=next_dims,
        consistent=predicted == next_dims,
    )


# ---------------------------------------------------------------------------
# Aperiodicity probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AperiodicWitness:
    """Per vertex, a path window violating every bounded candidate period."""

    windows: dict[Vertex, Morphism]


@dataclass(frozen=True)
class GlobalPeriod:
    """Every tested window is invariant under each of these periods."""

    periods: tuple[Degree, ...]


@dataclass(frozen=True)
class InconclusiveProbe:
    reason: str


ProbeResult = AperiodicWitness | GlobalPeriod | InconclusiveProbe

_PROBE_CAP = 50_000


def aperiodicity_probe(sk: Skeleton, depth: int) -> ProbeResult:
    """Bounded semi-decision for the aperiodicity condition.

    Examines all path windows of degree (depth+1)e against candidate
    periods p with |p_i| <= depth.  A window witnesses aperiodicity at
    this depth if it violates every candidate period somewhere in its
    box.  If instead some common period leaves every window invariant,
    that period is reported.  Anything else is Inconclusive; a witness
    never proves aperiodicity beyond the examined depth, nor does it
    rule out eventual periodicity setting in past it.
    """
    if depth < 1:
        raise DegreeMismatch("depth must be >= 1")
    big = dv.scaled(depth + 1, sk.k)
    if count_morphisms(sk, big) > _PROBE_CAP:
        return InconclusiveProbe(f"|Lambda^{big}| exceeds the probe cap {_PROBE_CAP}")
    windows = enumerate_morphisms(sk, big)
    grids = {w: unit_grid(w) for w in windows}
    candidates = sorted(
        (p for p in dv.box(dv.scaled(-depth, sk.k), dv.scaled(depth, sk.k)) if not dv.is_zero(p)),
        key=lambda p: (dv.norm_max(p), p),
    )
    # the unit edges (c, i) with (c + p, i) in the grid are those of [lo, hi]:
    # a grid is p-invariant when that box and its translate read the same word
    shape, zero = grid_shape(sk, big), dv.zero(sk.k)
    reads = {}
    for p in candidates:
        lo, hi = dv.join(zero, dv.neg(p)), dv.sub(big, dv.join(zero, p))
        reads[p] = shape.plan(lo, hi).read, shape.plan(dv.add(lo, p), dv.add(hi, p)).read

    def invariant(cells: list[str], p: Degree) -> bool:
        here, there = reads[p]
        return here(cells) == there(cells)

    global_periods = tuple(p for p in candidates if all(invariant(grids[w], p) for w in windows))
    if global_periods:
        return GlobalPeriod(global_periods)
    witnesses: dict[Vertex, Morphism] = {}
    for v in sk.vertices:
        for w in windows:
            if w.range == v and not any(invariant(grids[w], p) for p in candidates):
                witnesses[v] = w
                break
    if len(witnesses) == len(sk.vertices):
        return AperiodicWitness(witnesses)
    return InconclusiveProbe(
        "no global period, but vertices "
        f"{sorted(set(sk.vertices) - set(witnesses))} lack a witness at this depth"
    )
