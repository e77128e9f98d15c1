"""Finite k-graphs presented by colored multigraphs with commuting squares.

A skeleton is a k-colored directed multigraph together with one bijective
square table per color pair (i, j), i < j.  An entry f*g = g'*f' of the
table records the two factorisations of a degree e_i + e_j morphism.  For
k >= 3 the tables must in addition resolve color triples consistently
("cube condition"); together with bijectivity this makes the path category
a k-graph, i.e. gives unique degree-split factorisations on all degrees.

Morphisms are kept in color-normal form: all color-0 edges first, then
color-1, and so on, composable left to right with the range on the left.
Composition and factorisation rewrite words through the square tables on
every call; no result is cached.

Convention: a morphism runs from its source to its range; an edge with
``range=v, source=u`` is the step u -> v of a walk.  For 1-graphs this is
the usual path category of the underlying directed graph with the roles of
range and source switched relative to graph arrows.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import itemgetter, mul
from typing import Callable, Iterator, Mapping, Sequence

from . import degrees as dv
from .degrees import Degree
from .errors import (
    BoundExceeded,
    DegreeMismatch,
    GraphMismatch,
    MalformedSkeleton,
    NotComposable,
    OutOfBox,
    RankMismatch,
    ValidationFailure,
)

# The interpreter's built-in SHA-256 module, which loads no OpenSSL (the
# OpenSSL-backed digest adds about 3.7 MB of resident memory to a process).
# It is named _sha2 from Python 3.12 on.
if sys.version_info >= (3, 12):
    from _sha2 import sha256
else:
    from _sha256 import sha256

#: Vertices are identified by their string id throughout.
Vertex = str

DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class ColoredEdge:
    """A single edge of one color; the step ``source -> range`` of a walk."""

    id: str
    color: int
    range: Vertex
    source: Vertex


@dataclass(frozen=True)
class SquareRule:
    """One commuting square: left = (f, g), right = (g', f'), f*g = g'*f'.

    f, f' carry the lower color of ``pair`` and g, g' the higher one.
    """

    pair: tuple[int, int]
    left: tuple[str, str]
    right: tuple[str, str]


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    subjects: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]


@dataclass(frozen=True, eq=False)
class Skeleton:
    """Immutable presentation of a finite k-graph.

    Construction performs structural checks only (ids resolve, colors in
    range); mathematical validity is the job of :func:`validate_skeleton`.
    """

    k: int
    vertices: tuple[Vertex, ...]
    edges: tuple[ColoredEdge, ...]
    squares: tuple[SquareRule, ...]

    def __post_init__(self) -> None:
        self._check_structure()
        object.__setattr__(
            self, "_hash", hash((self.k, self.vertices, self.edges, self.squares))
        )

    # -- identity ---------------------------------------------------------

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Skeleton):
            return NotImplemented
        return (
            self.k == other.k
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.squares == other.squares
        )

    def digest(self) -> str:
        """Content hash of the presentation, stable under reordering.

        Lone surrogates (JSON escapes such as "\\udcff") hash as their
        "surrogatepass" bytes; every other id hashes as its UTF-8.
        """
        parts = [str(self.k)]
        parts += ["v" + v for v in sorted(self.vertices)]
        parts += [
            f"e{e.id},{e.color},{e.range},{e.source}"
            for e in sorted(self.edges, key=lambda e: e.id)
        ]
        parts += [
            f"s{r.pair}{r.left}{r.right}"
            for r in sorted(self.squares, key=lambda r: (r.pair, r.left))
        ]
        return sha256("".join(parts).encode("utf-8", "surrogatepass")).hexdigest()

    # -- structural checks --------------------------------------------------

    def _check_structure(self) -> None:
        if self.k < 1:
            raise MalformedSkeleton(f"k must be >= 1, got {self.k}")
        if not self.vertices:
            raise MalformedSkeleton("vertex list is empty")
        if len(set(self.vertices)) != len(self.vertices):
            raise MalformedSkeleton("duplicate vertex ids")
        vset = set(self.vertices)
        by_id: dict[str, ColoredEdge] = {}
        for e in self.edges:
            if e.id in by_id:
                raise MalformedSkeleton(f"duplicate edge id {e.id!r}")
            by_id[e.id] = e
            if not 0 <= e.color < self.k:
                raise MalformedSkeleton(f"edge {e.id!r} has color {e.color} outside [0, {self.k})")
            for v in (e.range, e.source):
                if v not in vset:
                    raise MalformedSkeleton(f"edge {e.id!r} references unknown vertex {v!r}")
        rule_keys: set[tuple[tuple[int, int], tuple[str, str]]] = set()
        for r in self.squares:
            i, j = r.pair
            if not (0 <= i < j < self.k):
                raise MalformedSkeleton(f"square pair {r.pair} is not an ordered color pair")
            for eid in (*r.left, *r.right):
                if eid not in by_id:
                    raise MalformedSkeleton(f"square {r.pair} references unknown edge {eid!r}")
            ef, eg = by_id[r.left[0]], by_id[r.left[1]]
            egp, efp = by_id[r.right[0]], by_id[r.right[1]]
            if (ef.color, eg.color) != (i, j) or (egp.color, efp.color) != (j, i):
                raise MalformedSkeleton(
                    f"square {r.pair} entry {r.left}->{r.right} has edges of the wrong colors"
                )
            key = (r.pair, r.left)
            if key in rule_keys:
                raise MalformedSkeleton(f"square {r.pair} defines {r.left} twice")
            rule_keys.add(key)

    # -- derived lookups (built once, after structural checks) --------------

    @cached_property
    def edge_map(self) -> Mapping[str, ColoredEdge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def color_of(self) -> Mapping[str, int]:
        return {e.id: e.color for e in self.edges}

    @cached_property
    def edges_of_color(self) -> tuple[tuple[ColoredEdge, ...], ...]:
        out: list[list[ColoredEdge]] = [[] for _ in range(self.k)]
        for e in self.edges:
            out[e.color].append(e)
        return tuple(tuple(es) for es in out)

    @cached_property
    def _by_range(self) -> Mapping[tuple[Vertex, int], tuple[ColoredEdge, ...]]:
        out: dict[tuple[Vertex, int], list[ColoredEdge]] = {}
        for e in self.edges:
            out.setdefault((e.range, e.color), []).append(e)
        return {key: tuple(es) for key, es in out.items()}

    @cached_property
    def _vertex_index(self) -> Mapping[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _sources(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per color c and vertex u (in vertex order), the indices of the
        sources of the color-c edges into u: the sparse generator M_c."""
        idx = self._vertex_index
        return tuple(
            tuple(tuple(idx[e.source] for e in self.edges_with_range(u, c)) for u in self.vertices)
            for c in range(self.k)
        )

    def edges_with_range(self, v: Vertex, color: int) -> tuple[ColoredEdge, ...]:
        return self._by_range.get((v, color), ())

    @cached_property
    def square_swap(self) -> Mapping[str, Mapping[str, tuple[str, str]]]:
        """Every square both ways round, keyed by first edge, then second:
        {f: {g: (g', f')}, g': {f': (f, g)}}.

        A two-edge path of two colors maps to the other path around its unit
        square.  The keys of the two directions never collide, because f
        has the lower color and g' the higher one.
        """
        out: dict[str, dict[str, tuple[str, str]]] = {}
        for r in self.squares:
            out.setdefault(r.left[0], {})[r.left[1]] = r.right
            out.setdefault(r.right[0], {})[r.right[1]] = r.left
        return out

    @cached_property
    def _memo(self) -> dict[str, dict]:
        return {}

    def _cache(self, name: str) -> dict:
        return self._memo.setdefault(name, {})


# ---------------------------------------------------------------------------
# Word rewriting through the square tables
# ---------------------------------------------------------------------------


def _swap(sk: Skeleton, first: str, second: str) -> tuple[str, str]:
    """Rewrite the two-edge path first*second as the other path around its
    square (descending colors to ascending, or back)."""
    try:
        return sk.square_swap[first][second]
    except KeyError:
        ci, cj = sorted((sk.color_of[first], sk.color_of[second]))
        raise ValidationFailure(
            f"square table ({ci},{cj}) has no entry for pair ({first!r}, {second!r})"
        ) from None


def _normalize_word(sk: Skeleton, word: Sequence[str]) -> list[str]:
    """Sort an edge word into color-normal form by square swaps (stable
    insertion).  The inserted edge x moves left in a local: each swap of
    out[i] * x leaves the new x before the new out[i + 1]."""
    colors, swap = sk.color_of, sk.square_swap
    out: list[str] = []
    for n, x in enumerate(word):
        out.append(x)
        c = colors[x]
        i = n - 1
        while i >= 0 and colors[out[i]] > c:
            try:
                x, out[i + 1] = swap[out[i]][x]
            except KeyError:
                _swap(sk, out[i], x)  # raises, naming the missing square
            i -= 1
        out[i + 1] = x
    return out


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class Morphism:
    """A path of the k-graph, stored as its color-normal word.

    By unique factorisation a path is fixed by its degree and its
    normal-form word: the color-0 edge ids first, then the color-1 ones,
    and so on, each block in composition order, reading from the range end.
    Degree-0 morphisms are vertex identities, with the empty word.

    The constructor checks nothing.  The functions of this module that
    make morphisms check their inputs, then build through ``_morphism``.
    """

    skeleton: Skeleton = field(repr=False)
    degree: Degree
    word: tuple[str, ...]
    range: Vertex
    source: Vertex
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.degree, self.word, self.range, self.source))
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.word == other.word
            and self.range == other.range
            and self.source == other.source
            and self.skeleton == other.skeleton
        )

    def __repr__(self) -> str:
        label = ".".join(self.word) if self.word else f"id_{self.range}"
        return f"<{label}: {self.source}->{self.range}, d={self.degree}>"

    @property
    def is_identity(self) -> bool:
        return dv.is_zero(self.degree)


_new_morphism = object.__new__
_set_skeleton = Morphism.skeleton.__set__
_set_degree = Morphism.degree.__set__
_set_word = Morphism.word.__set__
_set_range = Morphism.range.__set__
_set_source = Morphism.source.__set__
_set_hash = Morphism._hash.__set__


def _morphism(
    sk: Skeleton, degree: Degree, word: tuple[str, ...], rng: Vertex, src: Vertex
) -> Morphism:
    """The Morphism with these fields, filled slot by slot: the same object
    ``Morphism(...)`` builds, without its frozen-dataclass ``__init__``."""
    m = _new_morphism(Morphism)
    _set_skeleton(m, sk)
    _set_degree(m, degree)
    _set_word(m, word)
    _set_range(m, rng)
    _set_source(m, src)
    _set_hash(m, hash((degree, word, rng, src)))
    return m


def _from_normal_word(sk: Skeleton, word: Sequence[str], rng: Vertex, src: Vertex) -> Morphism:
    # trusted fast path: word already color-sorted and composable
    degree = [0] * sk.k
    colors = sk.color_of
    for eid in word:
        degree[colors[eid]] += 1
    return _morphism(sk, tuple(degree), tuple(word), rng, src)


def identity(sk: Skeleton, v: Vertex) -> Morphism:
    if v not in sk.vertices:
        raise MalformedSkeleton(f"unknown vertex {v!r}")
    return _morphism(sk, dv.zero(sk.k), (), v, v)


def make_morphism(sk: Skeleton, edge_ids: Sequence[str], vertex: Vertex | None = None) -> Morphism:
    """Build a morphism from a composable edge word (normalized on the way in).

    For an empty word, ``vertex`` names the identity to return.
    """
    if not edge_ids:
        if vertex is None:
            raise DegreeMismatch("empty word needs an explicit vertex for the identity")
        return identity(sk, vertex)
    # one pass: an unknown id anywhere outranks a break in the chain
    edges = sk.edge_map
    degree = [0] * sk.k
    broken = prev = None
    for eid in edge_ids:
        e = edges.get(eid)
        if e is None:
            raise MalformedSkeleton(f"unknown edge id {eid!r}")
        if prev is not None and prev.source != e.range and broken is None:
            broken = (prev.id, eid)
        degree[e.color] += 1
        prev = e
    if broken is not None:
        a, b = broken
        raise NotComposable(f"edges {a!r} and {b!r} do not chain (source != range)")
    word = _normalize_word(sk, edge_ids)
    return _morphism(sk, tuple(degree), tuple(word), edges[word[0]].range, edges[word[-1]].source)


# -- counting and enumeration ------------------------------------------------


def _peel(m: Degree) -> Iterator[tuple[int, Degree]]:
    """The peel chain of m: per edge of a degree-m normal-form word, in
    order, its color c and the degree left after it.  c is the first
    nonzero color of the degree before the step."""
    rest = list(m)
    for c, n in enumerate(m):
        for _ in range(n):
            rest[c] -= 1
            yield c, tuple(rest)


IntMatrix = tuple[tuple[int, ...], ...]


def _mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The exact product a b of two matrices of non-negative ints.

    The operand with the narrower entries supplies the scalars, so that
    the arithmetic stays close to schoolbook's: when a's entries are the
    wider, a b is computed as the transpose of b^T a^T.
    """
    bits = max(map(max, a)).bit_length(), max(map(max, b)).bit_length()
    if bits[0] > bits[1]:
        return tuple(zip(*_packed_product(tuple(zip(*b)), tuple(zip(*a)), sum(bits))))
    return _packed_product(a, b, sum(bits))


def _packed_product(a: IntMatrix, b: IntMatrix, bits: int) -> IntMatrix:
    """a b, with each row of b packed into one int: its entries in
    little-endian slots of w bytes, w wide enough for any entry of the
    product (entry bits of a and b together, plus the bits of the inner
    dimension).  A row of a b is then one sum of the entries of a row of
    a times packed rows, unpacked once: n^2 big-int products, not n^3."""
    w = (bits + len(b).bit_length() + 7) // 8
    packed = [
        int.from_bytes(b"".join([x.to_bytes(w, "little") for x in row]), "little") for row in b
    ]
    span = w * len(b[0])
    out = []
    for row in a:
        data = sum(map(mul, row, packed)).to_bytes(span, "little")
        out.append(tuple([int.from_bytes(data[i : i + w], "little") for i in range(0, span, w)]))
    return tuple(out)


def _identity_rows(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _generator_matrix(sk: Skeleton, color: int) -> IntMatrix:
    """|Lambda^{e_c}|: per (range, source), the number of color-c edges."""
    idx = sk._vertex_index
    n = len(sk.vertices)
    rows = [[0] * n for _ in range(n)]
    for e in sk.edges_of_color[color]:
        rows[idx[e.range]][idx[e.source]] += 1
    return tuple(tuple(r) for r in rows)


def _step_rows(sk: Skeleton, c: int, rows: IntMatrix) -> IntMatrix:
    """M_c times the matrix ``rows`` without forming M_c: row u of the
    result sums the rows at the sources of the color-c edges into u."""
    zero = (0,) * len(rows[0])
    out = []
    for srcs in sk._sources[c]:
        picked = [rows[s] for s in srcs]
        out.append(picked[0] if len(picked) == 1 else tuple(map(sum, zip(zero, *picked))))
    return tuple(out)


def _step_vector(sk: Skeleton, c: int, x: list[int]) -> list[int]:
    """M_c times the column vector x, the same way."""
    at = x.__getitem__
    return [sum(map(at, srcs)) for srcs in sk._sources[c]]


def _power(sk: Skeleton, c: int, j: int) -> IntMatrix:
    """M_c^(2^j), squared up from the nearest power already kept.  The
    skeleton keeps these binary powers only: k (log2 max p + 1) matrices."""
    powers = sk._cache("powers")
    top = j
    while top >= 0 and (c, top) not in powers:
        top -= 1
    if top < 0:
        top = 0
        powers[(c, 0)] = _generator_matrix(sk, c)
    for i in range(top + 1, j + 1):
        half = powers[(c, i - 1)]
        powers[(c, i)] = _mat_mul(half, half)
    return powers[(c, j)]


def _vm(sk: Skeleton, p: Degree) -> IntMatrix:
    """The exact vertex matrix |Lambda^p|, rows by range and columns by
    source, for a trusted p in N^k.

    |Lambda^p| is the ordered product M_0^(p_0) ... M_(k-1)^(p_(k-1)) of the
    generator matrices (any order agrees once the squares biject), each
    power the product of the binary powers M_c^(2^j) of the bits of p_c.
    """
    out: IntMatrix | None = None
    for c, pc in enumerate(p):
        j = 0
        while pc:
            if pc & 1:
                factor = _power(sk, c, j)
                out = factor if out is None else _mat_mul(out, factor)
            pc >>= 1
            j += 1
    return _identity_rows(len(sk.vertices)) if out is None else out


def _chain(sk: Skeleton, m: Degree, x: list[int]) -> list[list[int]]:
    """|Lambda^d| x for each degree d of the peel chain of m: entry 0 is at
    m, entry i + 1 at the degree left after the i-th step of ``_peel``.
    One sparse step per degree, built up from d = 0."""
    out = [x]
    for c, _ in reversed(list(_peel(m))):
        out.append(_step_vector(sk, c, out[-1]))
    out.reverse()
    return out


def _counts(sk: Skeleton, m: Degree) -> list[int]:
    """Per range vertex, the number of degree-m morphisms: |Lambda^m| 1,
    folded one sparse step per unit of degree."""
    x = [1] * len(sk.vertices)
    for c in reversed(range(sk.k)):
        for _ in range(m[c]):
            x = _step_vector(sk, c, x)
    return x


def _box_table(sk: Skeleton, top: Degree) -> dict[Degree, IntMatrix]:
    """|Lambda^m| for every m in [0, top], each one sparse step from its
    peel parent m - e_c (c the first nonzero color of m), which the
    lexicographic order of the box visits first.  Built per call."""
    table: dict[Degree, IntMatrix] = {}
    for m in dv.box(dv.zero(sk.k), top):
        c = next((i for i, mi in enumerate(m) if mi), None)
        if c is None:
            table[m] = _identity_rows(len(sk.vertices))
        else:
            table[m] = _step_rows(sk, c, table[m[:c] + (m[c] - 1,) + m[c + 1 :]])
    return table


def count_morphisms(sk: Skeleton, n: Degree) -> int:
    """|Lambda^n|, summed over all range vertices."""
    return sum(_counts(sk, dv.as_nonneg_degree(n, sk.k)))


def enumerate_morphisms(
    sk: Skeleton, n: Degree, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Morphism]:
    """All morphisms of degree n, in normal form, deterministic order.

    Words grow one edge at a time along the peel chain of n; the order is by
    range vertex, then by the choice of each edge from the range end.
    """
    n = dv.as_nonneg_degree(n, sk.k)
    total = count_morphisms(sk, n)
    if total > cap:
        raise BoundExceeded(f"|Lambda^{n}| = {total} exceeds the cap {cap}")
    paths = [((), v, v) for v in sk.vertices]  # (word, range, source so far)
    for c, _ in _peel(n):
        paths = [
            (word + (e.id,), v, e.source)
            for word, v, at in paths
            for e in sk.edges_with_range(at, c)
        ]
    return [_morphism(sk, n, word, v, src) for word, v, src in paths]


def _pick(items: Sequence, weights: Sequence, x):
    """The item whose interval of the cumulative weights holds x, for x in
    [0, sum(weights)); the last item when rounding leaves x past the end."""
    for item, w in zip(items, weights):
        if x < w:
            return item
        x -= w
    return items[-1]


def sample_morphism(sk: Skeleton, n: Degree, rng) -> Morphism:
    """Draw uniformly from Lambda^n using exact completion counts."""
    n = dv.as_nonneg_degree(n, sk.k)
    chain = _chain(sk, n, [1] * len(sk.vertices))
    weights = chain[0]
    if sum(weights) == 0:
        raise BoundExceeded(f"Lambda^{n} is empty")
    start = at = _pick(sk.vertices, weights, rng.randrange(sum(weights)))
    index = sk._vertex_index
    word: list[str] = []
    for (c, _), below in zip(_peel(n), chain[1:]):
        choices = sk.edges_with_range(at, c)
        counts = [below[index[e.source]] for e in choices]
        e = _pick(choices, counts, rng.randrange(sum(counts)))
        word.append(e.id)
        at = e.source
    return _morphism(sk, n, tuple(word), start, at)


# -- composition and factorisation -------------------------------------------


def compose(mu: Morphism, nu: Morphism) -> Morphism:
    """The composite mu*nu, defined when s(mu) = r(nu)."""
    if mu.skeleton != nu.skeleton:
        raise GraphMismatch("morphisms live over different skeletons")
    if mu.source != nu.range:
        raise NotComposable(f"s({mu!r}) = {mu.source!r} != r({nu!r}) = {nu.range!r}")
    sk = mu.skeleton
    word = _normalize_word(sk, mu.word + nu.word)
    return _morphism(sk, dv.add(mu.degree, nu.degree), tuple(word), mu.range, nu.source)


def _peel_head(sk: Skeleton, word: list[str], degree: Degree, m: Degree) -> list[str]:
    """Pop the head of degree m off ``word``, a normal word of ``degree``,
    in place, and return it.  Per color c, each of the first m_c color-c
    edges, which sits behind the lower-color edges left, is popped and
    walked to the front; the words stay normal."""
    swap = sk.square_swap
    head: list[str] = []
    left = list(degree)
    for c, n in enumerate(m):
        p = sum(left[:c])
        for _ in range(n):
            x = word.pop(p)
            for i in range(p - 1, -1, -1):
                try:
                    x, word[i] = swap[word[i]][x]
                except KeyError:
                    _swap(sk, word[i], x)  # raises, naming the missing square
            head.append(x)
        left[c] -= n
    return head


def _split(lam: Morphism, n1: Degree, n2: Degree) -> tuple[Morphism, Morphism]:
    """factorize for degrees the caller knows to be valid: n1, n2 in N^k
    with n1 + n2 = d(lam)."""
    sk = lam.skeleton
    word = list(lam.word)
    head = _peel_head(sk, word, lam.degree, n1)
    mid = lam.range if not head else sk.edge_map[head[-1]].source
    return (
        _morphism(sk, n1, tuple(head), lam.range, mid),
        _morphism(sk, n2, tuple(word), mid, lam.source),
    )


def factorize(lam: Morphism, n1: Degree, n2: Degree) -> tuple[Morphism, Morphism]:
    """The unique pair (nu1, nu2) with d(nu1) = n1, d(nu2) = n2, nu1*nu2 = lam."""
    sk = lam.skeleton
    n1 = dv.as_degree(n1, sk.k)
    n2 = dv.as_degree(n2, sk.k)
    if not (dv.is_nonneg(n1) and dv.is_nonneg(n2)) or dv.add(n1, n2) != lam.degree:
        raise DegreeMismatch(f"{n1} + {n2} != d(lam) = {lam.degree}")
    return _split(lam, n1, n2)


def subblock(lam: Morphism, a: Degree, b: Degree) -> Morphism:
    """The restriction lam(a, b) for 0 <= a <= b <= d(lam)."""
    sk = lam.skeleton
    a = dv.as_degree(a, sk.k)
    b = dv.as_degree(b, sk.k)
    if not (dv.is_nonneg(a) and dv.leq(a, b) and dv.leq(b, lam.degree)):
        raise DegreeMismatch(f"box [{a}, {b}] does not sit inside [0, {lam.degree}]")
    # peeling the head of degree a leaves the normal word of lam(a, d(lam)),
    # whose head of degree b - a is lam(a, b)
    word = list(lam.word)
    head = _peel_head(sk, word, lam.degree, a)
    rng = sk.edge_map[head[-1]].source if head else lam.range
    if b == lam.degree:
        return _morphism(sk, dv.sub(b, a), tuple(word), rng, lam.source)
    mid = _peel_head(sk, word, dv.sub(lam.degree, a), dv.sub(b, a))
    src = sk.edge_map[mid[-1]].source if mid else rng
    return _morphism(sk, dv.sub(b, a), tuple(mid), rng, src)


# -- unit-edge grids ----------------------------------------------------------


class ReadPlan:
    """Where the normal-form words along a chain of points a -> ... -> b of
    the box lie on a grid of one shape, resolved once.

    ``slots`` lists the grid slots of the chain's words in order; ``read``
    takes a grid to those edge ids in one call.  A plan of one leg [a, b]
    also serves x(a, b) itself: ``degree`` is b - a, and for a point box
    a = b, whose word is empty, ``point`` names the unit edge that fixes
    the vertex x(a): its slot, and whether x(a) is that edge's range (else
    its source).  It is None for every other box, and on a shape with no
    unit edges.
    """

    __slots__ = ("slots", "read", "degree", "point")

    def __init__(
        self, slots: tuple[int, ...], degree: Degree, point: tuple[int, bool] | None
    ) -> None:
        self.slots = slots
        if len(slots) > 1:
            self.read: Callable[[Sequence[str]], tuple[str, ...]] = itemgetter(*slots)
        elif slots:  # itemgetter of one slot returns the item, not a 1-tuple
            self.read = lambda cells, slot=slots[0]: (cells[slot],)  # noqa: E731
        else:
            self.read = lambda cells: ()  # noqa: E731
        self.degree = degree
        self.point = point

    def vertex(self, sk: Skeleton, cells: Sequence[str]) -> Vertex:
        """x(a) for a point box, read off a grid of this plan's shape."""
        if self.point is None:
            raise DegreeMismatch("the box [0, 0] has no unit edges")
        slot, is_range = self.point
        edge = sk.edge_map[cells[slot]]
        return edge.range if is_range else edge.source

    def morphism(self, sk: Skeleton, cells: Sequence[str]) -> Morphism:
        """x(a, b), read off a grid of this plan's shape."""
        word = self.read(cells)
        if word:
            rng, src = sk.edge_map[word[0]].range, sk.edge_map[word[-1]].source
        else:
            rng = src = self.vertex(sk, cells)
        return _morphism(sk, self.degree, word, rng, src)


class GridShape:
    """The unit edges x(c, c + e_i) of the box [0, d], laid out flat.

    A path of degree d is a degree-preserving functor from the box to the
    k-graph, so it is determined by the edge it puts on each unit edge; its
    grid lists those edge ids in the order of ``units``.  One shape serves
    every grid of its box and builds each plan once: the read plans (where
    the normal-form word of x(a, b) lies in the grid), found by grid
    coordinates or, on a window's box [0, 2Ne], by window coordinates; the
    view plans (the key of a window cut from it, by center and radius); and
    the square-fill plans (how the grid follows from one path through the
    box).  Each table is bounded by the box, whatever reads through it.
    """

    def __init__(self, d: Degree) -> None:
        self.d = d
        k = len(d)
        self.units = tuple(
            (c, i) for c in dv.box(dv.zero(k), d) for i in range(k) if c[i] < d[i]
        )
        self.index = {u: slot for slot, u in enumerate(self.units)}
        #: chains of grid points (a, b) or (a, mid, b), and window boxes
        #: (N, m, n), each to its plan
        self._reads: dict[tuple, ReadPlan] = {}
        #: (center, n) -> the key plan of the view of radius n at ``center``
        self._views: dict[tuple[Degree, int], ReadPlan] = {}
        self._fills: dict[Degree, tuple[tuple[int, ...], list[tuple[int, int, int, int]]]] = {}

    def plan(self, *chain: Degree) -> ReadPlan:
        """The plan of the normal-form words along ``chain`` (grid points,
        each leg a staircase: from its start along e_0 first, then e_1, and
        so on)."""
        plan = self._reads.get(chain)
        if plan is None:
            slots = []
            for a, b in zip(chain, chain[1:]):
                at = list(a)
                for c in range(len(a)):
                    for t in range(a[c], b[c]):
                        at[c] = t
                        slots.append(self.index[(tuple(at), c)])
                    at[c] = b[c]
            a, b = chain[0], chain[-1]
            point = self._point(a) if a == b else None
            plan = self._reads[chain] = ReadPlan(tuple(slots), dv.sub(b, a), point)
        return plan

    def _point(self, p: Degree) -> tuple[int, bool] | None:
        # x(p) is the range of a unit edge leaving p or the source of one
        # entering it; the box [0, 0] has neither
        for i, (pi, di) in enumerate(zip(p, self.d)):
            if pi < di:
                return self.index[(p, i)], True
            if pi > 0:
                return self.index[(dv.sub(p, dv.unit(i, len(p))), i)], False
        return None

    def box(self, N: int, m: Degree, n: Degree) -> ReadPlan:
        """The plan of x(m, n), m and n rank-k tuples, on the radius-N window
        whose grid this is.  A box that leaves the window raises ``OutOfBox``
        and is never stored, so it raises on every call."""
        key = (N, m, n)
        plan = self._reads.get(key)
        if plan is None:
            for a, b in zip(m, n):
                if not -N <= a <= b <= N:
                    raise OutOfBox(f"box [{m}, {n}] leaves the window of radius {N}")
            lo = tuple([N + a for a in m])
            plan = self._reads[key] = self.plan(lo, tuple([N + b for b in n]))
        return plan

    def view(self, N: int, center: Degree, n: int) -> ReadPlan:
        """The plan of the key of the radius-n window centred at ``center``
        of the radius-N window whose grid this is: the words of x(-ne, 0)
        and x(0, ne), read in one call.  The caller has checked that the
        view fits."""
        key = (center, n)
        plan = self._views.get(key)
        if plan is None:
            lo = tuple([N + c - n for c in center])
            mid = tuple([c + n for c in lo])
            plan = self._views[key] = self.plan(lo, mid, tuple([c + n for c in mid]))
        return plan

    def _fill_plan(self, mid: Degree) -> tuple[tuple[int, ...], list[tuple[int, int, int, int]]]:
        """The slots of the path x(0, mid) x(mid, d), and the square steps
        (a, b, x, y) completing the grid from it: slots a, b hold one way
        round a unit square, x, y receive the other way round.

        Every unit edge lies on a monotone path from 0 to d, and every such
        path comes from the first one by swapping adjacent steps, one
        square at a time, so the steps reach every slot.
        """
        plan = self._fills.get(mid)
        if plan is not None:
            return plan
        d, units, index = self.d, self.units, self.index
        path = self.plan(dv.zero(len(d)), mid, d).slots
        known = set(path)
        todo = list(path)
        steps: list[tuple[int, int, int, int]] = []
        while todo:
            slot = todo.pop()
            c, p = units[slot]
            # the two-edge paths through this unit edge: (c, p) then
            # (c + e_p, q), and (c - e_q, q) then (c, p)
            around = []
            up = c[:p] + (c[p] + 1,) + c[p + 1 :]
            for q in range(len(d)):
                if q == p:
                    continue
                if c[q] < d[q]:
                    around.append((slot, index[(up, q)], c, p, q))
                if c[q] > 0:
                    down = c[:q] + (c[q] - 1,) + c[q + 1 :]
                    around.append((index[(down, q)], slot, down, q, p))
            for a, b, corner, first, second in around:
                if a not in known or b not in known:
                    continue
                x = index[(corner, second)]
                y = index[(corner[:second] + (corner[second] + 1,) + corner[second + 1 :], first)]
                if x in known and y in known:
                    continue
                steps.append((a, b, x, y))
                for new in (x, y):
                    if new not in known:
                        known.add(new)
                        todo.append(new)
        plan = self._fills[mid] = (path, steps)
        return plan

    def fill(self, sk: Skeleton, word: Sequence[str], mid: Degree) -> list[str]:
        """The grid of the path whose normal-form words x(0, mid) and
        x(mid, d), concatenated, are ``word``; one square lookup per step."""
        path, steps = self._fill_plan(mid)
        cells: list = [None] * len(self.units)
        for slot, eid in zip(path, word, strict=True):
            cells[slot] = eid
        swap = sk.square_swap
        try:
            for a, b, x, y in steps:
                cells[x], cells[y] = swap[cells[a]][cells[b]]
        except KeyError:
            _swap(sk, cells[a], cells[b])  # raises, naming the missing square
        return cells


def grid_shape(sk: Skeleton, d: Degree) -> GridShape:
    """The shared shape of the box [0, d], kept with the skeleton."""
    shapes = sk._cache("grid")
    shape = shapes.get(d)
    if shape is None:
        shape = shapes[d] = GridShape(d)
    return shape


def unit_grid(lam: Morphism) -> list[str]:
    """The grid of lam over the box [0, d(lam)], in ``grid_shape`` order."""
    d = lam.degree
    return grid_shape(lam.skeleton, d).fill(lam.skeleton, lam.word, d)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_skeleton(sk: Skeleton) -> ValidationReport:
    """Check square bijectivity, cube consistency (k >= 3) and the
    every-vertex-emits-and-receives condition, per color.

    Returns a report listing every violation; it never raises for
    mathematical defects.
    """
    violations: list[Violation] = []
    # a square entry names edges of its own pair's colors only, so a pair or
    # triple with an edgeless color has nothing to check: the cost follows
    # the colors in use, not k
    colors = [c for c in range(sk.k) if sk.edges_of_color[c]]
    # per pair (i, j), {(f, g): (g', f')} with f*g = g'*f', in rule order;
    # grouped in one pass, as a scan per pair costs pairs x squares
    tables: dict[tuple[int, int], dict[tuple[str, str], tuple[str, str]]] = {}
    for r in sk.squares:
        tables.setdefault(r.pair, {})[r.left] = r.right
    square_ok = True
    for i, j in combinations(colors, 2):
        ok = _check_square_pair(sk, i, j, tables.get((i, j), {}), violations)
        square_ok = square_ok and ok
    if square_ok:
        _check_cubes(sk, colors, violations)
    _check_standing_assumption(sk, violations)
    return ValidationReport(ok=not violations, violations=tuple(violations))


def _check_square_pair(
    sk: Skeleton,
    i: int,
    j: int,
    table: Mapping[tuple[str, str], tuple[str, str]],
    out: list[Violation],
) -> bool:
    domain = {
        (f.id, g.id)
        for f in sk.edges_of_color[i]
        for g in sk.edges_of_color[j]
        if f.source == g.range
    }
    codomain = {
        (gp.id, fp.id)
        for gp in sk.edges_of_color[j]
        for fp in sk.edges_of_color[i]
        if gp.source == fp.range
    }
    ok = True
    for key in sorted(domain - set(table)):
        ok = False
        out.append(
            Violation(
                "square-missing",
                f"pair ({i},{j}): composable pair {key} has no square entry",
                key,
            )
        )
    for key in sorted(set(table) - domain):
        ok = False
        out.append(
            Violation(
                "square-spurious",
                f"pair ({i},{j}): entry for {key} but the pair is not composable",
                key,
            )
        )
    seen: dict[tuple[str, str], tuple[str, str]] = {}
    for key, val in table.items():
        if val in seen:
            ok = False
            out.append(
                Violation(
                    "square-not-injective",
                    f"pair ({i},{j}): {key} and {seen[val]} map to the same pair {val}",
                    key + seen[val],
                )
            )
        seen[val] = key
        if val not in codomain:
            ok = False
            out.append(
                Violation(
                    "square-bad-target",
                    f"pair ({i},{j}): {key} maps to non-composable pair {val}",
                    key + val,
                )
            )
            continue
        f, g = sk.edge_map[key[0]], sk.edge_map[key[1]]
        gp, fp = sk.edge_map[val[0]], sk.edge_map[val[1]]
        if f.range != gp.range or g.source != fp.source:
            ok = False
            out.append(
                Violation(
                    "square-endpoints",
                    f"pair ({i},{j}): {key} -> {val} does not preserve endpoints",
                    key + val,
                )
            )
    for val in sorted(codomain - set(seen)):
        ok = False
        out.append(
            Violation(
                "square-not-surjective",
                f"pair ({i},{j}): pair {val} is never a square target",
                val,
            )
        )
    return ok


def _critical_triples(
    sk: Skeleton, colors: Sequence[int]
) -> Iterator[tuple[ColoredEdge, ColoredEdge, ColoredEdge]]:
    """The composable edge words h*g*f of three descending colors among
    ``colors``.  They are the overlaps of the square swaps, the only words
    that two swaps can rewrite in two different ways."""
    for i, j, l in combinations(colors, 3):
        for h in sk.edges_of_color[l]:
            for g in sk.edges_with_range(h.source, j):
                for f in sk.edges_with_range(g.source, i):
                    yield h, g, f


def _check_cubes(sk: Skeleton, colors: list[int], out: list[Violation]) -> None:
    # resolve each critical triple both ways and compare
    for h, g, f in _critical_triples(sk, colors):
        a = _resolve_cube(sk, h.id, g.id, f.id, front_first=False)
        b = _resolve_cube(sk, h.id, g.id, f.id, front_first=True)
        if a != b:
            out.append(
                Violation(
                    "cube-inconsistent",
                    f"triple ({h.id},{g.id},{f.id}) resolves to {a} one way and {b} the other",
                    (h.id, g.id, f.id),
                )
            )


def _resolve_cube(sk: Skeleton, h: str, g: str, f: str, front_first: bool) -> tuple[str, str, str]:
    if front_first:
        g1, h1 = _swap(sk, h, g)
        f1, h2 = _swap(sk, h1, f)
        f2, g2 = _swap(sk, g1, f1)
        return (f2, g2, h2)
    f1, g1 = _swap(sk, g, f)
    f2, h1 = _swap(sk, h, f1)
    g2, h2 = _swap(sk, h1, g1)
    return (f2, g2, h2)


def _check_standing_assumption(sk: Skeleton, out: list[Violation]) -> None:
    emits = {(e.source, e.color) for e in sk.edges}
    for c in range(sk.k):
        for v in sk.vertices:
            if not sk.edges_with_range(v, c):
                out.append(
                    Violation(
                        "standing-assumption-range",
                        f"vertex {v!r} receives no color-{c} edge",
                        (v, str(c)),
                    )
                )
            if (v, c) not in emits:
                out.append(
                    Violation(
                        "standing-assumption-source",
                        f"vertex {v!r} emits no color-{c} edge",
                        (v, str(c)),
                    )
                )


# ---------------------------------------------------------------------------
# Derived graphs
# ---------------------------------------------------------------------------


def opposite_graph(sk: Skeleton) -> Skeleton:
    """The opposite k-graph: every edge reversed, square tables transported.

    Edge ids are preserved, and the result is memoized on both skeletons,
    so applying this twice returns the original object, not just an equal
    one, while the original lives.  The opposite holds the original only
    weakly, so the pair forms no reference cycle; once the original is
    gone, the opposite of the opposite is built afresh.
    """
    cache = sk._cache("opposite")
    hit = cache.get("op")
    if isinstance(hit, weakref.ref):  # sk was built as the opposite of hit
        hit = hit()
    if hit is None:
        edges = tuple(
            ColoredEdge(e.id, e.color, range=e.source, source=e.range) for e in sk.edges
        )
        # f*g = g'*f'  in Lambda becomes  f'*g' = g*f  in the opposite graph
        squares = tuple(
            SquareRule(r.pair, left=(r.right[1], r.right[0]), right=(r.left[1], r.left[0]))
            for r in sk.squares
        )
        hit = Skeleton(sk.k, sk.vertices, edges, squares)
        cache["op"] = hit
        hit._cache("opposite")["op"] = weakref.ref(sk)
    return hit


def opposite_morphism(mu: Morphism) -> Morphism:
    """The same path seen in the opposite graph: word reversed, renormalized."""
    op = opposite_graph(mu.skeleton)
    if mu.is_identity:
        return identity(op, mu.range)
    word = _normalize_word(op, mu.word[::-1])
    return _morphism(op, mu.degree, tuple(word), mu.source, mu.range)


def _pair_vertex(u: Vertex, w: Vertex) -> Vertex:
    return f"({u},{w})"


def combine(sk1: Skeleton, sk2: Skeleton, mode: str) -> Skeleton:
    """The product (k1+k2)-graph or, for equal ranks, the diamond k-graph."""
    if mode == "product":
        return _product(sk1, sk2)
    if mode == "diamond":
        if sk1.k != sk2.k:
            raise RankMismatch(f"diamond needs equal ranks, got {sk1.k} and {sk2.k}")
        return _diamond(sk1, sk2)
    raise ValueError(f"unknown combine mode {mode!r}")


def _product(sk1: Skeleton, sk2: Skeleton) -> Skeleton:
    k = sk1.k + sk2.k
    vertices = tuple(
        _pair_vertex(u, w) for u in sk1.vertices for w in sk2.vertices
    )
    edges: list[ColoredEdge] = []
    for f in sk1.edges:
        for w in sk2.vertices:
            edges.append(
                ColoredEdge(
                    f"l({f.id},{w})", f.color, _pair_vertex(f.range, w), _pair_vertex(f.source, w)
                )
            )
    for g in sk2.edges:
        for u in sk1.vertices:
            edges.append(
                ColoredEdge(
                    f"r({u},{g.id})",
                    sk1.k + g.color,
                    _pair_vertex(u, g.range),
                    _pair_vertex(u, g.source),
                )
            )
    squares: list[SquareRule] = []
    for r in sk1.squares:
        for w in sk2.vertices:
            squares.append(
                SquareRule(
                    r.pair,
                    left=(f"l({r.left[0]},{w})", f"l({r.left[1]},{w})"),
                    right=(f"l({r.right[0]},{w})", f"l({r.right[1]},{w})"),
                )
            )
    for r in sk2.squares:
        i, j = r.pair
        for u in sk1.vertices:
            squares.append(
                SquareRule(
                    (sk1.k + i, sk1.k + j),
                    left=(f"r({u},{r.left[0]})", f"r({u},{r.left[1]})"),
                    right=(f"r({u},{r.right[0]})", f"r({u},{r.right[1]})"),
                )
            )
    # cross pairs: the canonical flip (f x r(g)) * (s(f) x g) = (r(f) x g) * (f x s(g))
    for f in sk1.edges:
        for g in sk2.edges:
            squares.append(
                SquareRule(
                    (f.color, sk1.k + g.color),
                    left=(f"l({f.id},{g.range})", f"r({f.source},{g.id})"),
                    right=(f"r({f.range},{g.id})", f"l({f.id},{g.source})"),
                )
            )
    return Skeleton(k, vertices, tuple(edges), tuple(squares))


def _diamond(sk1: Skeleton, sk2: Skeleton) -> Skeleton:
    k = sk1.k
    vertices = tuple(_pair_vertex(u, w) for u in sk1.vertices for w in sk2.vertices)
    edges: list[ColoredEdge] = []
    for c in range(k):
        for f1 in sk1.edges_of_color[c]:
            for f2 in sk2.edges_of_color[c]:
                edges.append(
                    ColoredEdge(
                        f"({f1.id},{f2.id})",
                        c,
                        _pair_vertex(f1.range, f2.range),
                        _pair_vertex(f1.source, f2.source),
                    )
                )
    squares: list[SquareRule] = []
    for i in range(k):
        for j in range(i + 1, k):
            for r1 in sk1.squares:
                if r1.pair != (i, j):
                    continue
                for r2 in sk2.squares:
                    if r2.pair != (i, j):
                        continue
                    squares.append(
                        SquareRule(
                            (i, j),
                            left=(
                                f"({r1.left[0]},{r2.left[0]})",
                                f"({r1.left[1]},{r2.left[1]})",
                            ),
                            right=(
                                f"({r1.right[0]},{r2.right[0]})",
                                f"({r1.right[1]},{r2.right[1]})",
                            ),
                        )
                    )
    return Skeleton(k, vertices, tuple(edges), tuple(squares))


def diagonal_restriction(sk: Skeleton) -> Skeleton:
    """The 1-graph whose edges are the degree-e morphisms of sk."""
    diag = enumerate_morphisms(sk, dv.ones(sk.k))
    edges = tuple(
        ColoredEdge(f"[{'.'.join(m.word)}]", 0, m.range, m.source) for m in diag
    )
    return Skeleton(1, sk.vertices, edges, ())
