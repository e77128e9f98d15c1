"""Seeded random skeletons for the property suites.

Valid k-graphs cannot be sampled by throwing random square tables at a
multi-vertex colored graph (the two composable-pair counts rarely match,
and for k >= 3 random tables are almost never cube consistent).  Instead:

* 1-graphs: a random single cycle (keeps every vertex fed both ways and
  the graph irreducible) plus random extra edges;
* 2-graphs: a product of two 1-graphs, a one-vertex multigraph, where any
  bijection between the loop pairs is a valid square table, or a twisted
  2-graph, whose red edges are the blue paths of a fixed length: blue-red
  and red-blue paths then match in number per (range, source), and any
  bijection between them is a valid square table (Kumjian-Pask, New York
  J. Math. 6, 2000);
* 3-graphs: products of the above.
"""

from __future__ import annotations

import json
import random

from kgraphs.core import ColoredEdge, Skeleton, SquareRule, combine, validate_skeleton


def random_1graph(rng: random.Random, n_vertices: int, extra_edges: int = 0) -> Skeleton:
    vertices = tuple(f"w{i}" for i in range(n_vertices))
    order = list(range(n_vertices))
    rng.shuffle(order)
    edges = []
    for idx in range(n_vertices):
        src = vertices[order[idx]]
        dst = vertices[order[(idx + 1) % n_vertices]]
        edges.append(ColoredEdge(f"c{idx}", 0, dst, src))
    for idx in range(extra_edges):
        u, v = rng.choice(vertices), rng.choice(vertices)
        edges.append(ColoredEdge(f"x{idx}", 0, v, u))
    return Skeleton(1, vertices, tuple(edges), ())


def random_flip_2graph(rng: random.Random, n_blue: int, n_red: int) -> Skeleton:
    """One vertex, arbitrary loops per color, a random square bijection."""
    blues = [f"b{i}" for i in range(n_blue)]
    reds = [f"r{i}" for i in range(n_red)]
    edges = tuple(
        [ColoredEdge(b, 0, "v", "v") for b in blues]
        + [ColoredEdge(r, 1, "v", "v") for r in reds]
    )
    domain = [(b, r) for b in blues for r in reds]
    codomain = [(r, b) for r in reds for b in blues]
    rng.shuffle(codomain)
    squares = tuple(
        SquareRule((0, 1), left, right) for left, right in zip(domain, codomain)
    )
    return Skeleton(2, ("v",), edges, squares)


def random_twisted_2graph(
    rng: random.Random, n_vertices: int, extra_edges: int, p: int
) -> Skeleton:
    """Blue edges of a random 1-graph with matrix A, one red edge per blue
    path of length p, and a random square bijection per (range, source).
    For n_vertices > 1 this is in general neither a one-vertex graph nor a
    product, and |Lambda^(m,n)| is the entry sum of A^(m+pn)."""
    base = random_1graph(rng, n_vertices, extra_edges)
    blues = base.edges
    paths = [(e,) for e in blues]
    for _ in range(p - 1):
        # a path f1 ... fq runs from s(fq) to r(f1)
        paths = [path + (e,) for path in paths for e in blues if e.range == path[-1].source]
    reds = [
        ColoredEdge(f"r{i}", 1, path[0].range, path[-1].source) for i, path in enumerate(paths)
    ]
    domain: dict[tuple[str, str], list[tuple[str, str]]] = {}
    codomain: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for f in blues:
        for g in reds:
            if f.source == g.range:
                domain.setdefault((f.range, g.source), []).append((f.id, g.id))
            if g.source == f.range:
                codomain.setdefault((g.range, f.source), []).append((g.id, f.id))
    squares = []
    for ends, lefts in domain.items():
        rights = codomain[ends]
        rng.shuffle(rights)
        squares += [SquareRule((0, 1), lr[0], lr[1]) for lr in zip(lefts, rights, strict=True)]
    return Skeleton(2, base.vertices, blues + tuple(reds), tuple(squares))


def make_random_skeletons(seed: int) -> list[Skeleton]:
    rng = random.Random(seed)
    graphs = [
        random_1graph(rng, 3, extra_edges=1),
        random_1graph(rng, 4),
        random_flip_2graph(rng, 2, 3),
        combine(random_1graph(rng, 2, extra_edges=1), random_1graph(rng, 2), "product"),
        combine(random_flip_2graph(rng, 2, 2), random_1graph(rng, 1, extra_edges=1), "product"),
    ]
    for sk in graphs:
        report = validate_skeleton(sk)
        assert report.ok, f"generator produced an invalid skeleton: {report.codes()}"
    return graphs


def document(sk: Skeleton) -> str:
    """The JSON document of sk, as the CLI reads it."""
    return json.dumps(
        {
            "k": sk.k,
            "vertices": list(sk.vertices),
            "edges": [
                {"id": e.id, "color": e.color, "range": e.range, "source": e.source}
                for e in sk.edges
            ],
            "squares": [
                {"pair": list(r.pair), "left": list(r.left), "right": list(r.right)}
                for r in sk.squares
            ],
        }
    )
