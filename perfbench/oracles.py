"""Independent oracles for the benchmark's output checks.

Nothing here calls kgraphs.  Counts come from closed forms or from integer
matrix powers by repeated squaring (the program multiplies one generator at
a time); spectral radii come from numpy.linalg.eigvals (the program uses
power iteration).  Each check returns a list of problems, empty when the
output is right.
"""

from __future__ import annotations

from itertools import product as grid

Matrix = list[list[int]]

REL_TOL = 1e-9


def mat_mul(a, b) -> Matrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_pow(m, n: int) -> Matrix:
    size = len(m)
    out = [[int(i == j) for j in range(size)] for i in range(size)]
    base = [list(row) for row in m]
    while n:
        if n & 1:
            out = mat_mul(out, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return out


def vertex_matrix(gens: list[Matrix], p: tuple[int, ...]) -> Matrix:
    """prod_c M_c^{p_c}; the generator matrices of a k-graph commute."""
    out = mat_pow(gens[0], 0)
    for m, e in zip(gens, p, strict=True):
        out = mat_mul(out, mat_pow(m, e))
    return out


def matrix_count(m, n: int) -> int:
    """Entry sum of m^n: the number of length-n paths of a 1-graph."""
    return sum(map(sum, mat_pow(m, n)))


def spectral_radius(m) -> float:
    import numpy as np  # here, so that a set-up's import of kgraphs pays for numpy

    return float(max(abs(np.linalg.eigvals(np.array(m, dtype=float)))))


def close(x: float, y: float, tol: float = REL_TOL) -> bool:
    return abs(x - y) <= tol * max(abs(x), abs(y), 1.0)


def box(top: tuple[int, ...]):
    return grid(*(range(t + 1) for t in top))


# ---------------------------------------------------------------------------
# Checks on program outputs
# ---------------------------------------------------------------------------


def check_perron(t, a: dict, b: dict, gens: list[Matrix]) -> list[str]:
    """t_i is the spectral radius of M_i and sum_v a(v) b(v) = 1."""
    problems = []
    for i, (ti, m) in enumerate(zip(t, gens, strict=True)):
        rho = spectral_radius(m)
        if not close(ti, rho):
            problems.append(f"t[{i}] = {ti!r}, spectral radius {rho!r}")
    pairing = sum(a[v] * b[v] for v in a)
    if not close(pairing, 1.0):
        problems.append(f"sum a(v) b(v) = {pairing!r}")
    return problems


def check_masses(values: list[float], expect: float = 1.0) -> list[str]:
    total = sum(values)
    return [] if close(total, expect) else [f"masses sum to {total!r}, expected {expect!r}"]


def check_suite(results: dict, exit_code: int) -> list[str]:
    """Every battery check states a theorem about valid k-graphs."""
    bad = [c["name"] for c in results.get("checks", []) if c["status"] not in ("pass", "skip")]
    problems = [f"checks not pass/skip: {bad}"] if bad else []
    if not results.get("checks"):
        problems.append("no checks reported")
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    return problems


def _blocks(word: list[str], color: dict[str, int], k: int) -> list[list[str]]:
    out: list[list[str]] = [[] for _ in range(k)]
    for eid in word:
        out[color[eid]].append(eid)
    return out


def plain_flips(doc: dict) -> bool:
    """True when every square is f*g = g*f, so that a normal-form word splits
    into past and future block by block, without rewriting."""
    return all(s["right"] == s["left"][::-1] for s in doc.get("squares", []))


def bracket_word(doc: dict, x: list[str], y: list[str], n: int) -> list[str]:
    """Past of x glued to the future of y, for documents with plain flips:
    per color, the first n edges of x's block then the rest of y's."""
    color = {e["id"]: e["color"] for e in doc["edges"]}
    bx, by = _blocks(x, color, doc["k"]), _blocks(y, color, doc["k"])
    return [eid for c in range(doc["k"]) for eid in bx[c][:n] + by[c][n:]]


def origin(doc: dict, word: list[str], n: int) -> str:
    """x(0) of a plain-flip window: the source of the last past edge of the
    last color, which is where the future's first edge starts."""
    color = {e["id"]: e["color"] for e in doc["edges"]}
    source = {e["id"]: e["source"] for e in doc["edges"]}
    past = _blocks(word, color, doc["k"])
    return source[past[-1][n - 1]]
