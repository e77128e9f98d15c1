"""Seeded inputs of the benchmark: spec documents and the session's call mix.

Everything here is the benchmark's own code.  It imports neither kgraphs nor
the repository's tests, so a change to the program or to a test helper
cannot change a workload; the program receives only the documents and the
calls built here.

Write the inputs of one workload and seed to a directory for inspection:

    python3 perfbench/inputs.py --workload library-session --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracles import matrix_count

INPUTS = Path(__file__).resolve().parent / "inputs"

#: Frozen copies of the repository's fixtures; the closed forms below are
#: written for exactly these documents.
FIXTURE_COUNTS: dict[str, Callable[[tuple[int, ...]], int]] = {
    "g1": lambda p: 2 ** p[0],
    "g2": lambda p: matrix_count(((1, 1), (1, 0)), p[0]),
    "g3": lambda p: 2 ** p[0] * 2 ** p[1],
    "g4": lambda p: 1,
}


@dataclass(frozen=True)
class Graph:
    """A spec document together with an independent closed form for |Lambda^p|."""

    name: str
    doc: dict
    count: Callable[[tuple[int, ...]], int]

    @property
    def text(self) -> str:
        return json.dumps(self.doc, indent=1)


def fixture(name: str) -> Graph:
    doc = json.loads((INPUTS / f"{name}.json").read_text())
    return Graph(name, doc, FIXTURE_COUNTS[name])


# ---------------------------------------------------------------------------
# Random skeletons.  Every generator fixes the shape (vertex and edge counts)
# and draws the rest, so each seed asks for about the same amount of work.
# ---------------------------------------------------------------------------


def _edge(eid: str, color: int, rng_v: str, src: str) -> dict:
    return {"id": eid, "color": color, "range": rng_v, "source": src}


def one_graph(rng: random.Random, name: str, n: int, extra: int, hub: bool = False) -> Graph:
    """A random n-cycle, one loop and `extra` random edges: irreducible and
    aperiodic for every draw.  With `hub`, spokes to and from a random hub
    vertex replace the cycle, so every vertex reaches every other in at most
    two steps."""
    vertices = [f"w{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    if hub:
        h = vertices[order[0]]
        edges = [_edge(f"i{i}", 0, h, v) for i, v in enumerate(vertices) if v != h]
        edges += [_edge(f"o{i}", 0, v, h) for i, v in enumerate(vertices) if v != h]
        loop = h
    else:
        edges = [
            _edge(f"c{i}", 0, vertices[order[(i + 1) % n]], vertices[order[i]])
            for i in range(n)
        ]
        loop = rng.choice(vertices)
    edges.append(_edge("l0", 0, loop, loop))
    for i in range(extra):
        edges.append(_edge(f"x{i}", 0, rng.choice(vertices), rng.choice(vertices)))
    doc = {"k": 1, "vertices": vertices, "edges": edges, "squares": []}
    matrix = generator_matrices(doc)[0]
    return Graph(name, doc, lambda p: matrix_count(matrix, p[0]))


def product(name: str, g1: Graph, g2: Graph) -> Graph:
    """The product (k1 + k2)-graph; |Lambda^(p, q)| = |Lambda1^p| |Lambda2^q|."""
    d1, d2 = g1.doc, g2.doc
    k1 = d1["k"]

    def pv(u: str, w: str) -> str:
        return f"({u},{w})"

    edges = [
        _edge(f"l({f['id']},{w})", f["color"], pv(f["range"], w), pv(f["source"], w))
        for f in d1["edges"]
        for w in d2["vertices"]
    ] + [
        _edge(f"r({u},{g['id']})", k1 + g["color"], pv(u, g["range"]), pv(u, g["source"]))
        for g in d2["edges"]
        for u in d1["vertices"]
    ]
    squares = [
        {
            "pair": s["pair"],
            "left": [f"l({e},{w})" for e in s["left"]],
            "right": [f"l({e},{w})" for e in s["right"]],
        }
        for s in d1.get("squares", [])
        for w in d2["vertices"]
    ] + [
        {
            "pair": [k1 + s["pair"][0], k1 + s["pair"][1]],
            "left": [f"r({u},{e})" for e in s["left"]],
            "right": [f"r({u},{e})" for e in s["right"]],
        }
        for s in d2.get("squares", [])
        for u in d1["vertices"]
    ]
    # cross pairs commute by the canonical flip
    squares += [
        {
            "pair": [f["color"], k1 + g["color"]],
            "left": [f"l({f['id']},{g['range']})", f"r({f['source']},{g['id']})"],
            "right": [f"r({f['range']},{g['id']})", f"l({f['id']},{g['source']})"],
        }
        for f in d1["edges"]
        for g in d2["edges"]
    ]
    doc = {
        "k": k1 + d2["k"],
        "vertices": [pv(u, w) for u in d1["vertices"] for w in d2["vertices"]],
        "edges": edges,
        "squares": squares,
    }
    return Graph(name, doc, lambda p: g1.count(p[:k1]) * g2.count(p[k1:]))


def generator_matrices(doc: dict) -> list[list[list[int]]]:
    """Per color, the (range, source) edge-count matrix of a spec document."""
    idx = {v: i for i, v in enumerate(doc["vertices"])}
    n = len(idx)
    out = [[[0] * n for _ in range(n)] for _ in range(doc["k"])]
    for e in doc["edges"]:
        out[e["color"]][idx[e["range"]]][idx[e["source"]]] += 1
    return out


# ---------------------------------------------------------------------------
# The library session
# ---------------------------------------------------------------------------

#: Calls that fail on every run with RecursionError, because the spectral core
#: recurses once per unit of total degree.  Their inputs do not depend on the
#: seed; each still has a closed-form answer to check should it succeed.
DEEP_CALLS = (
    ("count", "g2", (2000,)),
    ("vertex_matrix", "g1", (3000,)),
    ("count", "g3", (250, 250)),
)


def session_graphs(seed: int) -> list[Graph]:
    # The graphs that get Perron data are built around hubs: perron_data's
    # residual test is absolute, and fails on a share of random-cycle graphs
    # of this size whose positive combination has a large spectral radius.
    rng = random.Random(seed)
    return [
        one_graph(rng, "A", 24, 24, hub=True),
        one_graph(rng, "B", 28, 28, hub=True),
        product("P", one_graph(rng, "p1", 5, 5, hub=True), one_graph(rng, "p2", 5, 5, hub=True)),
        product(
            "R3",
            product("q12", one_graph(rng, "q1", 2, 1), one_graph(rng, "q2", 2, 1)),
            one_graph(rng, "q3", 3, 2),
        ),
    ] + [fixture(name) for name in ("g1", "g2", "g3", "g4")]


def random_walk(rng: random.Random, doc: dict, length: int) -> list[str]:
    """An edge word read from the range end: each edge's source is the next
    edge's range, colors mixed at random."""
    into: dict[str, list[str]] = {}
    source = {}
    for e in doc["edges"]:
        into.setdefault(e["range"], []).append(e["id"])
        source[e["id"]] = e["source"]
    at = rng.choice(doc["vertices"])
    word = []
    for _ in range(length):
        eid = rng.choice(into[at])
        word.append(eid)
        at = source[eid]
    return word


def session_calls(seed: int, graphs: list[Graph]) -> list[tuple]:
    """The fixed mix of one session.  The seed draws the graphs, the order of
    the calls, the words and the windows; the degrees and the graph shapes
    are fixed, so the exact spectral work varies little with the seed."""
    rng = random.Random(seed * 7919 + 1)
    docs = {g.name: g.doc for g in graphs}
    calls: list[tuple] = []
    for name in ("A", "B"):
        for d in range(40, 321, 40):
            calls.append(("vertex_matrix", name, (d,)))
            calls.append(("count", name, (d + 20,)))
    for p in ((80, 80), (140, 40), (40, 140), (120, 120), (200, 20)):
        calls.append(("vertex_matrix", "P", p))
        calls.append(("count", "P", p))
    calls += [("perron", name) for name in ("A", "B", "P", "R3", "g2", "g3")]
    calls += [("classify", "R3", (8, 8, 8)), ("classify", "P", (6, 6))]
    calls += [("probe", "g1", 4), ("probe", "g2", 4), ("probe", "g3", 2)]
    for name in ("P", "R3"):
        for length in list(range(20, 61, 2)) * 16:
            word = random_walk(rng, docs[name], length)
            calls.append(("roundtrip", name, word, rng.randint(1, length - 1)))
    calls += [("cylinders", "A", (3,)), ("cylinders", "B", (3,)), ("cylinders", "P", (1, 1))]
    calls += [("windows", "g3", 2, rng.randrange(2**32))]
    rng.shuffle(calls)
    # the deep calls go first, on skeletons nothing else has touched yet, so
    # how far they recurse cannot depend on the seed
    return list(DEEP_CALLS) + calls + [("suite", "g4")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite-fixtures", "library-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload == "suite-fixtures":
        graphs = [fixture(name) for name in FIXTURE_COUNTS]
    else:
        graphs = session_graphs(args.seed)
        calls = session_calls(args.seed, graphs)
        (out / "calls.json").write_text(json.dumps(calls, indent=1) + "\n")
    for g in graphs:
        (out / f"{g.name}.json").write_text(g.text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
