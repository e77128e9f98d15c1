"""Vertex matrices, connectivity classes, Perron data and AF tower blocks.

Vertex matrices are exact: entries are Python ints, so arbitrarily large
path counts never overflow.  They come from the counting engine in core:
one matrix is a product of the binary powers M_c^(2^j) of the generator
matrices, the only matrices a skeleton keeps, and a sweep over a box of
degrees builds its own table, one sparse generator step per degree, and
drops it on return.  Floating point enters only in the Perron eigendata,
which is computed by power iteration on an entrywise-positive combination
of vertex matrices.  The eigendata are lists of floats, and every dot
product, norm and mean is summed with ``math.fsum``, which rounds exactly,
so they depend on no linear-algebra kernel and no Python version.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce

from . import degrees as dv
from .core import (
    IntMatrix,
    Morphism,
    Skeleton,
    Vertex,
    _box_table,
    _generator_matrix,
    _vm,
    count_morphisms,
    enumerate_morphisms,
    grid_shape,
    unit_grid,
)
from .degrees import Degree
from .errors import DegreeMismatch, GraphMismatch, NoPositiveCombination, NotConverged, NotIrreducible


@dataclass(frozen=True)
class VertexMatrix:
    """|Lambda^p|: exact morphism counts indexed by (range, source) vertex."""

    degree: Degree
    vertices: tuple[Vertex, ...]
    entries: IntMatrix

    def entry(self, u: Vertex, v: Vertex) -> int:
        return self.entries[self.vertices.index(u)][self.vertices.index(v)]

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


def _mat_add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


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
    # every ordered pair (u, v) must be joined by a path of length >= 1
    succ: dict[Vertex, set[Vertex]] = {v: set() for v in sk.vertices}
    for e in sk.edges:
        succ[e.range].add(e.source)
    for u in sk.vertices:
        reached: set[Vertex] = set()
        frontier = list(succ[u])
        while frontier:
            w = frontier.pop()
            if w in reached:
                continue
            reached.add(w)
            frontier.extend(succ[w])
        if reached != set(sk.vertices):
            return False
    return True


def classify_connectivity(sk: Skeleton, search_bound: Degree) -> ConnectivityClass:
    """Exact irreducibility plus a bounded scan for an entrywise-positive power."""
    bound = dv.as_degree(search_bound, sk.k)
    if not dv.leq(dv.ones(sk.k), bound):
        raise DegreeMismatch(f"search bound {bound} must be >= e")
    irreducible = _is_irreducible(sk)
    # m qualifies when |Lambda^m| > 0 on every degree of [m, bound], which is
    # m together with the boxes [m + e_i, bound]: a pass in reverse
    # lexicographic order decides m from its upper neighbours, and a
    # neighbour past the bound is absent from the table and imposes nothing
    units = [dv.unit(i, sk.k) for i in range(sk.k)]
    table = _box_table(sk, bound)
    qualifies: dict[Degree, bool] = {}
    for m in reversed(list(table)[1:]):  # [1:] drops 0
        qualifies[m] = all(qualifies.get(dv.add(m, u), True) for u in units) and (
            VertexMatrix(m, sk.vertices, table[m]).is_positive()
        )
    candidates = [m for m, ok in qualifies.items() if ok]
    if not candidates:
        return ConnectivityClass(
            irreducible=irreducible,
            primitive=False,
            threshold=None,
            inconclusive=irreducible,
            search_bound=bound,
        )
    threshold = min(candidates, key=lambda m: (dv.norm_max(m), dv.total(m), m))
    return ConnectivityClass(
        irreducible=irreducible,
        primitive=True,
        threshold=threshold,
        inconclusive=False,
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
    tol: float

    def t_power(self, p: Degree) -> float:
        """t^p for p in Z^k."""
        out = 1.0
        for ti, pi in zip(self.t, p, strict=True):
            out *= ti**pi
        return out

    def require_same_graph(self, m: Morphism) -> None:
        if m.skeleton != self.skeleton:
            raise GraphMismatch("morphism belongs to a different skeleton")


def _dot(x: Sequence[float], y: Sequence[float]) -> float:
    return math.fsum(map(operator.mul, x, y))


def _power_iteration(
    a: Sequence[Sequence[float]], tol: float, max_iter: int = 200_000
) -> tuple[list[float], float]:
    v = [1.0] * len(a)
    for _ in range(max_iter):
        w = [_dot(row, v) for row in a]
        lam = _dot(w, v) / _dot(v, v)
        top = max(map(abs, v))
        resid = max(abs(x - lam * y) for x, y in zip(w, v)) / top
        # relative to the eigenvalue's scale: a large positive combination
        # has an absolute residual no finer than its float resolution
        if resid <= tol * max(1.0, abs(lam)):
            return [x / top for x in v], resid
        top = max(map(abs, w))
        v = [x / top for x in w]
    raise NotConverged(f"power iteration did not reach residual {tol} relative to the eigenvalue")


def perron_data(sk: Skeleton, tol: float = 1e-12) -> PerronData:
    """Perron vector t and eigenfunctions a, b for an irreducible graph.

    A positive integer matrix A = sum of |Lambda^p| over 0 != p <= B is
    built with B = e, escalating B by e until A is entrywise positive.
    """
    if not _is_irreducible(sk):
        raise NotIrreducible("graph is not irreducible")
    nv = len(sk.vertices)
    bound = dv.ones(sk.k)
    limit = max(nv, 1)
    while True:
        terms = list(_box_table(sk, bound).values())[1:]  # [1:] drops 0
        acc = reduce(_mat_add, terms)
        if all(x > 0 for row in acc for x in row):
            break
        if max(bound) >= limit:
            raise NoPositiveCombination(
                f"no entrywise-positive sum of vertex matrices for bounds up to {bound}"
            )
        bound = dv.add(bound, dv.ones(sk.k))
    b_vec, resid_b = _power_iteration([list(map(float, row)) for row in acc], tol)
    a_vec, resid_a = _power_iteration([list(map(float, col)) for col in zip(*acc)], tol)
    residual = max(resid_a, resid_b)
    ts: list[float] = []
    for c in range(sk.k):
        gen = _generator_matrix(sk, c)
        ratios_b = [_dot(row, b_vec) / y for row, y in zip(gen, b_vec)]
        ratios_a = [_dot(col, a_vec) / x for col, x in zip(zip(*gen), a_vec)]
        ti = math.fsum(ratios_b) / nv
        ts.append(ti)
        residual = max(residual, *(abs(x - ti) for x in ratios_b + ratios_a))
    # sum a(v) b(v) = 1 leaves one scaling free; balance the 2-norms so
    # that a = b whenever the positive combination is symmetric
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
        tol=tol,
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
    predicted = {
        v: sum(dims[w] * mult.entry(w, v) for w in sk.vertices) for v in sk.vertices
    }
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
    # per period p, the slots of the unit edges (c, i) and (c + p, i) that
    # both lie in the box: a grid is p-invariant when each pair agrees
    shape = grid_shape(sk, big)
    slots: dict[Degree, list[tuple[int, int]]] = {p: [] for p in candidates}
    for here, (c, i) in enumerate(shape.units):
        for p, pairs in slots.items():
            there = shape.index.get((dv.add(c, p), i))
            if there is not None:
                pairs.append((here, there))

    def invariant(cells: list[str], p: Degree) -> bool:
        return all(cells[a] == cells[b] for a, b in slots[p])

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
