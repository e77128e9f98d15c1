"""A definition-level oracle for the word operations of `kgraphs.core`.

A path of degree d in a k-graph is a degree-preserving functor from the
grid Omega_{k,d} (the points of the box [0, d], with a unit edge from c
to c + e_i) into the graph.  It puts a vertex on every point and, on the
unit edge from c to c + e_i, a color-i edge whose range is the vertex at
c and whose source is the vertex at c + e_i; each unit square carries an
entry of the square table.  `paths` enumerates these colourings by
backtracking over the unit edges.  It uses no normal form, no word
rewriting and no grid shape of the library.  Composition is gluing and
factorisation is restriction: the composite of p and q is the unique path
of degree d(p) + d(q) whose restrictions to [0, d(p)] and to
[d(p), d(p) + d(q)] are p and q.

`assert_matches_oracle` compares `count_morphisms`, `enumerate_morphisms`,
`compose`, `factorize` and `subblock` with the oracle on every degree of
[0, 2e].  A library morphism stores the word read along the staircase of
its grid (from 0 along e_0 first, then e_1, and so on), so each path is
matched with the library morphism of that word.

`aperiodicity_probe` is the probe of `kgraphs.spectral` by its definition:
a path is p-invariant when every unit edge (c, i) whose translate
(c + p, i) lies in the grid carries the same edge as that translate.  It
pairs the slots of each unit edge and its translate on the library's grids
(`unit_grid`, checked against `subblock` in `tests/test_grids.py`), where
the library compares the normal-form words of two boxes instead.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

from kgraphs import degrees as dv
from kgraphs.core import (
    compose,
    count_morphisms,
    enumerate_morphisms,
    factorize,
    grid_shape,
    subblock,
    unit_grid,
)
from kgraphs.spectral import (
    _PROBE_CAP,
    AperiodicWitness,
    GlobalPeriod,
    InconclusiveProbe,
    ProbeResult,
)

#: a path: the vertex on each grid point, then the edge id on each unit
#: edge, both in lexicographic order of the points
Path = tuple[tuple[str, ...], tuple[str, ...]]


def _points(d):
    return list(product(*(range(n + 1) for n in d)))


def _step(c, i):
    return c[:i] + (c[i] + 1,) + c[i + 1 :]


def _units(d):
    return [(c, i) for c in _points(d) for i in range(len(d)) if c[i] < d[i]]


def paths(sk, d) -> list[Path]:
    """Lambda^d as the colourings of the grid of [0, d]."""
    if not any(d):
        return [((v,), ()) for v in sk.vertices]
    points, units = _points(d), _units(d)
    slot = {u: t for t, u in enumerate(units)}
    # a unit square at corner c with colors i < j is f g = g' f', with f on
    # (c, i), g on (c + e_i, j), g' on (c, j) and f' on (c + e_j, i); in
    # lexicographic order its unit edges come as f, g', f', g.  Each is
    # checked, when it is filled, against the prefixes of the table entries
    prefixes = set()
    for r in sk.squares:
        entry = (r.left[0], r.right[0], r.right[1], r.left[1])
        prefixes.update(entry[:n] for n in range(1, 5))
    squares_at: list[list[tuple[int, ...]]] = [[] for _ in units]
    for c in points:
        for i, j in combinations(range(len(d)), 2):
            if c[i] < d[i] and c[j] < d[j]:
                square = slot[(c, i)], slot[(c, j)], slot[(_step(c, j), i)], slot[(_step(c, i), j)]
                for n, t in enumerate(square):
                    squares_at[t].append(square[: n + 1])
    by_color = [[e for e in sk.edges if e.color == i] for i in range(sk.k)]
    out: list[Path] = []
    at: dict = {}
    cells: list = [None] * len(units)

    def fill(t: int) -> None:
        if t == len(units):
            out.append((tuple(at[p] for p in points), tuple(cells)))
            return
        c, i = units[t]
        end = _step(c, i)
        for e in by_color[i]:
            if at.get(c, e.range) != e.range or at.get(end, e.source) != e.source:
                continue
            cells[t] = e.id
            if all(tuple(cells[s] for s in seen) in prefixes for seen in squares_at[t]):
                new = [p for p in (c, end) if p not in at]
                at[c], at[end] = e.range, e.source
                fill(t + 1)
                for p in new:
                    del at[p]

    fill(0)
    return out


@cache
def _restriction(d, a, b):
    """Where the points and unit edges of [a, b], moved to [0, b - a], sit
    in the lists of [0, d]."""
    point = {c: t for t, c in enumerate(_points(d))}
    unit = {u: t for t, u in enumerate(_units(d))}
    inner = tuple(y - x for x, y in zip(a, b))

    def moved(c):
        return tuple(x + y for x, y in zip(c, a))

    return (
        [point[moved(c)] for c in _points(inner)],
        [unit[(moved(c), i)] for c, i in _units(inner)],
    )


def restrict(p: Path, d, a, b) -> Path:
    """The path of degree b - a that p puts on the box [a, b]."""
    points, units = _restriction(d, a, b)
    return tuple(map(p[0].__getitem__, points)), tuple(map(p[1].__getitem__, units))


def staircase(p: Path, d) -> tuple[str, tuple[str, ...]]:
    """The range vertex of p and its word along the staircase from 0 to d."""
    unit_at = dict(zip(_units(d), p[1]))
    word, at = [], (0,) * len(d)
    for i, n in enumerate(d):
        for _ in range(n):
            word.append(unit_at[(at, i)])
            at = _step(at, i)
    return p[0][0], tuple(word)


def assert_matches_oracle(sk) -> None:
    """Assert that the library's counts, enumeration, composition,
    factorisation and restriction agree with the oracle on [0, 2e]."""
    degrees = list(product(range(3), repeat=sk.k))
    zero = (0,) * sk.k
    oracle = {d: paths(sk, d) for d in degrees}
    lib = {}
    for d in degrees:
        assert count_morphisms(sk, d) == len(oracle[d]), d
        listed = {(m.range, m.word): m for m in enumerate_morphisms(sk, d)}
        assert len(listed) == len(oracle[d]), d
        for p in oracle[d]:
            m = lib[d, p] = listed[staircase(p, d)]
            assert (m.degree, m.source) == (d, p[0][-1]), (d, p)
    for d in degrees:
        for n1 in product(*(range(x + 1) for x in d)):
            n2 = tuple(x - y for x, y in zip(d, n1))
            # every composable pair glues to exactly one path of degree d
            glued = {(restrict(p, d, zero, n1), restrict(p, d, n1, d)): p for p in oracle[d]}
            assert len(glued) == len(oracle[d]), (d, n1)
            pairs = sum(q[0][-1] == r[0][0] for q in oracle[n1] for r in oracle[n2])
            assert pairs == len(glued), (d, n1)
            for (q, r), p in glued.items():
                pair = lib[n1, q], lib[n2, r]
                assert compose(*pair) == lib[d, p], (pair, d)
                assert factorize(lib[d, p], n1, n2) == pair, (lib[d, p], n1)
        for p in oracle[d]:
            for a in product(*(range(x + 1) for x in d)):
                for b in product(*(range(x, y + 1) for x, y in zip(a, d))):
                    inner = tuple(y - x for x, y in zip(a, b))
                    want = lib[inner, restrict(p, d, a, b)]
                    assert subblock(lib[d, p], a, b) == want, (lib[d, p], a, b)


def aperiodicity_probe(sk, depth: int) -> ProbeResult:
    """`spectral.aperiodicity_probe` by its definition, slot pair by slot
    pair on the library's grids, with its cap, orders and messages."""
    big = dv.scaled(depth + 1, sk.k)
    if count_morphisms(sk, big) > _PROBE_CAP:
        return InconclusiveProbe(f"|Lambda^{big}| exceeds the probe cap {_PROBE_CAP}")
    windows = enumerate_morphisms(sk, big)
    grids = {w: unit_grid(w) for w in windows}
    candidates = sorted(
        (p for p in dv.box(dv.scaled(-depth, sk.k), dv.scaled(depth, sk.k)) if not dv.is_zero(p)),
        key=lambda p: (dv.norm_max(p), p),
    )
    shape = grid_shape(sk, big)
    slots: dict = {p: [] for p in candidates}
    for here, (c, i) in enumerate(shape.units):
        for p, pairs in slots.items():
            there = shape.index.get((dv.add(c, p), i))
            if there is not None:
                pairs.append((here, there))

    def invariant(cells, p) -> bool:
        return all(cells[a] == cells[b] for a, b in slots[p])

    periods = tuple(p for p in candidates if all(invariant(grids[w], p) for w in windows))
    if periods:
        return GlobalPeriod(periods)
    witnesses = {}
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
