"""Window-scale dynamics of the Z^k shift on the two-sided path space.

A Window is the restriction of a two-sided path to the symmetric box
[-Ne, Ne].  A two-sided path is a degree-preserving functor from the
lattice category, so a window is stored as its grid of unit edges
x(c, c + e_i) over the box (``core.GridShape``), and compared and hashed
by its path through the origin: the past word x(-Ne, 0) followed by the
future word x(0, Ne).  Extraction reads a staircase off the grid, shift
and restriction cut a view out of it by reading the view's key, and the
bracket glues the past of one key to the future of another.

Reads are compiled: the grid's shape resolves each box once, by the
window's radius and the box (``GridShape.box``), into a ``ReadPlan`` whose
one ``itemgetter`` reads the box's word; a view's key is read the same
way, by its center and radius (``GridShape.view``).  A view keeps the
window it was cut from and its center there, not a place on its grid: a
view of a view not yet read is cut from the same source, and a view fills
its own grid from its key when a box read first needs it, so only this
module knows where a view sits.  Every operation that would read outside
the box fails loudly rather than pad: a window never fabricates path data,
and a box that leaves the window is never stored as a plan.  Shifting
therefore shrinks the radius by the max coordinate of the shift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import degrees as dv
from .core import (
    DEFAULT_ENUMERATION_CAP,
    GridShape,
    Morphism,
    Skeleton,
    Vertex,
    _chain,
    _from_normal_word,
    _morphism,
    _peel,
    _pick,
    _split,
    compose,
    count_morphisms,
    enumerate_morphisms,
    grid_shape,
    make_morphism,
    sample_morphism,
    subblock,
    unit_grid,
)
from .degrees import Degree
from .errors import (
    BoundExceeded,
    DegreeMismatch,
    GraphMismatch,
    NotBracketable,
    NotPrimitive,
    OutOfBox,
    RadiusExhausted,
    RadiusMismatch,
)
from .measure import CylinderSet
from .spectral import ConnectivityClass, PerronData


@dataclass(frozen=True)
class MetricParams:
    r: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"metric parameter r must lie in (0, 1), got {self.r}")


#: a window's shape, the box [0, 2Ne], and its grid of unit edges
_Grid = tuple[GridShape, list[str]]


class Window:
    """x(-Ne, Ne): a two-sided path truncated to the box of radius N.

    Stored as its grid of unit edges over the box and identified by its
    path through the origin, ``key``: the normal-form words of the past
    x(-Ne, 0) and of the future x(0, Ne), concatenated.  The two halves
    determine the window (unique factorisation at Ne).  Shifted and
    restricted windows are views: a key, with the window it was cut from
    and its center there (``_source``); a bracket is its key alone.  Both
    fill their own grid from the key when a read needs it.  Windows carry no
    instance dict: ``__slots__`` holds the fields, and the body and the
    nested words are filled on first read.
    """

    __slots__ = ("skeleton", "N", "key", "origin", "_grid", "_source", "_body", "_nested_words")

    def __init__(self, N: int, body: Morphism) -> None:
        """The window whose body x(-Ne, Ne) is ``body``, of degree 2Ne: a
        radius that is not an integer >= 1, or a body of another degree,
        raises DegreeMismatch."""
        sk = body.skeleton
        N = _radius(N)
        if body.degree != dv.scaled(2 * N, sk.k):
            raise DegreeMismatch(
                f"body degree {body.degree} is not 2Ne = {dv.scaled(2 * N, sk.k)}"
            )
        shape, cells = grid_shape(sk, body.degree), unit_grid(body)
        self.skeleton = sk
        self.N = N
        self.key = shape.plan(dv.zero(sk.k), dv.scaled(N, sk.k), body.degree).read(cells)
        #: x(0), the vertex at the center of the box: the range of the
        #: first edge of the future word
        self.origin: Vertex = sk.edge_map[self.key[sk.k * N]].range
        self._grid: _Grid | None = (shape, cells)
        self._source: tuple[Window, Degree] | None = None
        self._body: Morphism | None = body
        self._nested_words: tuple[tuple[str, ...], ...] | None = None

    @classmethod
    def _of(
        cls, sk: Skeleton, N: int, key: tuple[str, ...], origin: Vertex, grid: _Grid | None = None
    ) -> "Window":
        """The window with this key and origin on ``grid``, or on a grid
        filled from the key when first read."""
        w = cls.__new__(cls)
        w.skeleton, w.N, w.key, w.origin, w._grid = sk, N, key, origin, grid
        w._source = w._body = w._nested_words = None
        return w

    def __hash__(self) -> int:
        return hash((self.N, self.key))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Window):
            return NotImplemented
        return self.key == other.key and self.N == other.N and self.skeleton == other.skeleton

    def __repr__(self) -> str:
        return f"Window(N={self.N}, body={self.body!r})"

    def _cells(self) -> _Grid:
        if self._grid is None:
            sk, ne = self.skeleton, dv.scaled(self.N, self.skeleton.k)
            shape = grid_shape(sk, dv.scaled(2 * self.N, sk.k))
            self._grid = (shape, shape.fill(sk, self.key, ne))
            self._source = None  # views of it are cut from this grid: free the source
        return self._grid

    def _view(self, center: Degree, n: int) -> "Window":
        """The radius-n window centred at ``center`` of this one, its key
        read off this window's grid or, before that is filled, its source's."""
        source = self
        if self._source is not None:
            source, at = self._source
            center = dv.add(at, center)
        shape, cells = source._cells()
        key, sk = shape.view(source.N, center, n).read(cells), self.skeleton
        w = Window._of(sk, n, key, sk.edge_map[key[sk.k * n]].range)
        w._source = (source, center)
        return w

    def _read(self, m: Degree, n: Degree) -> tuple[str, ...] | Vertex:
        """The raw read of x(m, n): its word, or the vertex x(m) for a point
        box.  Windows over one skeleton at one radius read equal raw values
        exactly when their blocks x(m, n) are equal."""
        shape, cells = self._cells()
        plan = shape.box(self.N, m, n)
        return plan.read(cells) if plan.point is None else plan.vertex(self.skeleton, cells)

    @property
    def _nested(self) -> tuple[tuple[str, ...], ...]:
        """The normal-form words of x(-je, je), j = 1..N, as raw edge ids."""
        if self._nested_words is None:
            shape, cells = self._cells()
            N, k = self.N, self.skeleton.k
            self._nested_words = tuple(
                shape.box(N, dv.scaled(-j, k), dv.scaled(j, k)).read(cells)
                for j in range(1, N + 1)
            )
        return self._nested_words

    def extract(self, m: Degree, n: Degree) -> Morphism:
        """x(m, n) for -Ne <= m <= n <= Ne."""
        k = self.skeleton.k
        m, n = dv.as_degree(m, k), dv.as_degree(n, k)
        shape, cells = self._cells()
        return shape.box(self.N, m, n).morphism(self.skeleton, cells)

    @property
    def past(self) -> Morphism:
        """x(-Ne, 0), rebuilt from the key on each read."""
        return self._half(0, self.skeleton.edge_map[self.key[0]].range, self.origin)

    @property
    def future(self) -> Morphism:
        """x(0, Ne), rebuilt from the key on each read."""
        end = self.skeleton.edge_map[self.key[-1]].source
        return self._half(self.skeleton.k * self.N, self.origin, end)

    def _half(self, start: int, rng: Vertex, src: Vertex) -> Morphism:
        # a half is a normal-form word of degree Ne: N edges of each color
        sk, size = self.skeleton, self.skeleton.k * self.N
        return _morphism(sk, dv.scaled(self.N, sk.k), self.key[start : start + size], rng, src)

    @property
    def body(self) -> Morphism:
        """x(-Ne, Ne) as one morphism of degree 2Ne (set directly on windows
        built from their body)."""
        if self._body is None:
            ne = dv.scaled(self.N, self.skeleton.k)
            self._body = self.extract(dv.neg(ne), ne)
        return self._body

    def record(self) -> dict:
        """Serialization: radius, the body word, and the skeleton hash."""
        return {
            "radius": self.N,
            "edges": list(self.body.word),
            "skeleton": self.skeleton.digest(),
        }


def _block_tokens(windows: list[Window], m: Degree, n: Degree) -> list[int]:
    """``Window._read`` of x(m, n) over a list of windows, interned: equal
    tokens iff equal blocks, for windows over one skeleton at one radius.
    The box's plan is looked up once per grid shape."""
    reads: dict = {}
    intern: dict = {}
    out = []
    for w in windows:
        shape, cells = w._cells()
        read = reads.get(shape)
        if read is None:
            plan = shape.box(w.N, m, n)
            read = plan.read
            if plan.point is not None:
                read = functools.partial(plan.vertex, w.skeleton)
            reads[shape] = read
        out.append(intern.setdefault(read(cells), len(intern)))
    return out


def _radius(n: int) -> int:
    """A window radius: an integer >= 1, else DegreeMismatch."""
    n = dv.as_integer(n, "radius")
    if n < 1:
        raise DegreeMismatch(f"radius must be >= 1, got {n}")
    return n


def make_window(sk: Skeleton, body: Morphism, n: int) -> Window:
    if body.skeleton != sk:
        raise GraphMismatch("body belongs to a different skeleton")
    return Window(n, body)


def window_from_record(sk: Skeleton, rec: dict) -> Window:
    if rec["skeleton"] != sk.digest():
        raise GraphMismatch("record was written for a different skeleton")
    body = make_morphism(sk, rec["edges"])
    return make_window(sk, body, rec["radius"])


def all_windows(sk: Skeleton, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Window]:
    """Every radius-n window, i.e. every body in Lambda^{2ne}."""
    n = _radius(n)
    bodies = enumerate_morphisms(sk, dv.scaled(2 * n, sk.k), cap=cap)
    return [Window(n, b) for b in bodies]


def sample_window(sk: Skeleton, n: int, rng) -> Window:
    """Uniform over radius-n windows."""
    n = _radius(n)
    return Window(n, sample_morphism(sk, dv.scaled(2 * n, sk.k), rng))


def sample_window_parry(pd: PerronData, n: int, rng) -> Window:
    """Window body drawn from the Parry measure of its cylinder.

    The start vertex follows a(v)b(v); each edge e of color c leaving
    vertex v is then taken with probability b(s(e)) / (t_c b(v)).
    """
    sk = pd.skeleton
    weights = [pd.a[v] * pd.b[v] for v in sk.vertices]
    start = at = _pick(sk.vertices, weights, rng.random() * sum(weights))
    word: list[str] = []
    for c, _ in _peel(dv.scaled(2 * n, sk.k)):
        choices = sk.edges_with_range(at, c)
        probs = [pd.b[e.source] / (pd.t[c] * pd.b[at]) for e in choices]
        e = _pick(choices, probs, rng.random() * sum(probs))
        word.append(e.id)
        at = e.source
    return Window(n, _from_normal_word(sk, word, start, at))


# ---------------------------------------------------------------------------
# Shift, metric, bracket
# ---------------------------------------------------------------------------


def shift(w: Window, n: Degree) -> Window:
    """sigma^n at window scale; the radius shrinks to N - max|n_i|."""
    n = dv.as_degree(n, w.skeleton.k)
    norm = dv.norm_max(n)
    if norm > w.N - 1:
        raise RadiusExhausted(f"shift by {n} exhausts a window of radius {w.N}")
    return w._view(n, w.N - norm)


def restrict(w: Window, n: int) -> Window:
    """The same window at a smaller radius."""
    n = dv.as_integer(n, "radius")
    if not 1 <= n <= w.N:
        raise OutOfBox(f"cannot restrict radius {w.N} to {n}")
    if n == w.N:
        return w
    return w._view(dv.zero(w.skeleton.k), n)


@dataclass(frozen=True)
class DistanceResult:
    h: float  # agreement depth; math.inf when indistinguishable at this radius
    rho: float
    indistinguishable: bool


def distance(x: Window, y: Window, params: MetricParams = MetricParams()) -> DistanceResult:
    """rho(x, y) = r^h with h the first box radius where the windows differ.

    Windows that agree on the whole box are flagged indistinguishable and
    reported with rho = 0; equality of the underlying infinite paths is
    never claimed.
    """
    if x.N != y.N:
        raise RadiusMismatch(f"radii differ: {x.N} != {y.N}")
    if x.skeleton != y.skeleton:
        raise GraphMismatch("windows live over different skeletons")
    if x.origin != y.origin:
        return DistanceResult(h=0, rho=1.0, indistinguishable=False)
    agree = 0
    for wx, wy in zip(x._nested, y._nested):
        if wx != wy:
            break
        agree += 1
    if agree == x.N:
        return DistanceResult(h=math.inf, rho=0.0, indistinguishable=True)
    h = 1 + agree
    return DistanceResult(h=h, rho=params.r**h, indistinguishable=False)


def bracket(x: Window, y: Window) -> Window:
    """[x, y]: the window with the past of x and the future of y."""
    sk, N = x.skeleton, x.N
    if N != y.N:
        raise RadiusMismatch(f"radii differ: {N} != {y.N}")
    if sk is not y.skeleton and sk != y.skeleton:
        raise GraphMismatch("windows live over different skeletons")
    if x.origin != y.origin:
        raise NotBracketable(f"origins differ: {x.origin!r} != {y.origin!r}")
    half = sk.k * N
    return Window._of(sk, N, x.key[:half] + y.key[half:], x.origin)


# ---------------------------------------------------------------------------
# Local product structure and mixing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalProduct:
    future_fiber: tuple[Morphism, ...]
    past_fiber: tuple[Morphism, ...]
    window_count: int
    check: bool


def local_product_enum(
    sk: Skeleton, v: Vertex, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> LocalProduct:
    """Depth-n halves through v and the count check |E| * |F| = #windows at v."""
    ne = dv.scaled(n, sk.k)
    total = count_morphisms(sk, dv.scaled(2 * n, sk.k))
    if total > cap:
        raise BoundExceeded(f"|Lambda^{dv.scaled(2 * n, sk.k)}| = {total} exceeds {cap}")
    halves = enumerate_morphisms(sk, ne, cap=cap)
    futures = tuple(m for m in halves if m.range == v)
    pasts = tuple(m for m in halves if m.source == v)
    nwin = 0
    for body in enumerate_morphisms(sk, dv.scaled(2 * n, sk.k), cap=cap):
        mid, _ = _split(body, ne, ne)
        if mid.source == v:
            nwin += 1
    return LocalProduct(
        future_fiber=futures,
        past_fiber=pasts,
        window_count=nwin,
        check=len(futures) * len(pasts) == nwin,
    )


@dataclass(frozen=True)
class MixingLag:
    Q: Degree
    verified: bool
    threshold: Degree
    connectors: dict[Degree, Morphism]


def mixing_lag(
    sk: Skeleton, u_cyl: CylinderSet, v_cyl: CylinderSet, cc: ConnectivityClass
) -> MixingLag:
    """The lag Q = M + d(nu) + n - l beyond which U meets every shift of V.

    ``cc`` is the connectivity class of sk (``classify_connectivity``); its
    threshold is M.  For each q in [Q, Q + 2e] a connector lam' in
    Lambda^{M + q - Q} from r(lam) to s(nu) is produced, and the composite
    nu * lam' * lam is checked to read nu and lam at the right offsets,
    witnessing a point of Z(lam, l) intersect sigma^q Z(nu, n).
    """
    if u_cyl.lam.skeleton != sk or v_cyl.lam.skeleton != sk:
        raise GraphMismatch("cylinders belong to a different skeleton")
    if not cc.primitive:
        raise NotPrimitive(
            "graph is not primitive within the search bound"
            + (" (inconclusive)" if cc.inconclusive else "")
        )
    assert cc.threshold is not None
    lam, ell = u_cyl.lam, u_cyl.offset
    nu, n_off = v_cyl.lam, v_cyl.offset
    q0 = dv.add(cc.threshold, dv.add(nu.degree, dv.sub(n_off, ell)))
    verified = True
    connectors: dict[Degree, Morphism] = {}
    for q in dv.box(q0, dv.add(q0, dv.scaled(2, sk.k))):
        deg = dv.add(cc.threshold, dv.sub(q, q0))
        conn = connecting_morphism(sk, nu.source, lam.range, deg)
        if conn is None:
            verified = False
            continue
        connectors[q] = conn
        composite = compose(compose(nu, conn), lam)
        at = dv.sub(dv.add(ell, q), n_off)  # lam sits here inside the composite
        ok = (
            subblock(composite, dv.zero(sk.k), nu.degree) == nu
            and subblock(composite, at, dv.add(at, lam.degree)) == lam
        )
        verified = verified and ok
    return MixingLag(Q=q0, verified=verified, threshold=cc.threshold, connectors=connectors)


def connecting_morphism(sk: Skeleton, u: Vertex, v: Vertex, m: Degree) -> Morphism | None:
    """Some morphism of degree m with range u and source v, or None.

    Count-guided construction through the column of v in the exact vertex
    matrices along the peel chain of m, built for this call; no enumeration
    of Lambda^m.
    """
    m = dv.as_nonneg_degree(m, sk.k)
    index = sk._vertex_index
    col = index[v]
    chain = _chain(sk, m, [int(i == col) for i in range(len(sk.vertices))])
    if chain[0][index[u]] == 0:
        return None
    word: list[str] = []
    at = u
    for (c, _), below in zip(_peel(m), chain[1:]):
        e = next(e for e in sk.edges_with_range(at, c) if below[index[e.source]] > 0)
        word.append(e.id)
        at = e.source
    return _from_normal_word(sk, word, u, v)
