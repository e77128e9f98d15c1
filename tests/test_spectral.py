"""Vertex matrices, connectivity, Perron data, AF blocks, aperiodicity."""

import math
import random

import numpy as np
import pytest

from kgraphs import degrees as dv
from kgraphs.core import ColoredEdge, Skeleton, combine, enumerate_morphisms
from kgraphs.errors import DegreeMismatch, NotConverged, NotIrreducible
from kgraphs.spectral import (
    AperiodicWitness,
    GlobalPeriod,
    _power_iteration,
    af_multiplicities,
    aperiodicity_probe,
    classify_connectivity,
    perron_data,
    vertex_matrix,
)

from randgraphs import random_1graph

PHI = (1 + math.sqrt(5)) / 2


@pytest.fixture(scope="module")
def two_cycle():
    """u <-> v with no loops: irreducible of period 2."""
    return Skeleton(
        1,
        ("u", "v"),
        (ColoredEdge("e", 0, "v", "u"), ColoredEdge("f", 0, "u", "v")),
        (),
    )


@pytest.fixture(scope="module")
def blue_loop():
    """One vertex, one blue loop and no red edge: a 2-graph with paths of
    degree (i, 0) only."""
    return Skeleton(2, ("v",), (ColoredEdge("b", 0, "v", "v"),), ())


@pytest.fixture(scope="module")
def split_graph():
    """Two disjoint loops: not irreducible."""
    return Skeleton(
        1,
        ("u", "v"),
        (ColoredEdge("e", 0, "u", "u"), ColoredEdge("f", 0, "v", "v")),
        (),
    )


# ---------------------------------------------------------------------------
# vertex matrices
# ---------------------------------------------------------------------------


def test_matrix_powers_g1(g1):
    assert vertex_matrix(g1, (5,)).entries == ((32,),)
    assert vertex_matrix(g1, (0,)).entries == ((1,),)


def test_matrix_square_g2(g2):
    m = [[1, 1], [1, 0]]
    expect = [
        [sum(m[i][k] * m[k][j] for k in range(2)) for j in range(2)] for i in range(2)
    ]
    assert vertex_matrix(g2, (2,)).entries == tuple(tuple(r) for r in expect)
    assert expect == [[2, 1], [1, 1]]


def test_matrix_power_is_exact_big_int(g1):
    assert vertex_matrix(g1, (200,)).entries == ((2**200,),)


def test_matrix_counts_match_enumeration(test_graphs):
    for sk in test_graphs:
        for n in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k)):
            m = vertex_matrix(sk, n)
            by_pair = {}
            for lam in enumerate_morphisms(sk, n):
                by_pair[(lam.range, lam.source)] = by_pair.get((lam.range, lam.source), 0) + 1
            for u in sk.vertices:
                for v in sk.vertices:
                    assert m.entry(u, v) == by_pair.get((u, v), 0)


def test_semigroup_and_commutation(test_graphs):
    from kgraphs.core import _generator_matrix, _mat_mul

    for sk in test_graphs:
        for p in dv.box(dv.zero(sk.k), dv.ones(sk.k)):
            for q in dv.box(dv.zero(sk.k), dv.ones(sk.k)):
                assert (
                    vertex_matrix(sk, dv.add(p, q)).entries
                    == _mat_mul(vertex_matrix(sk, p).entries, vertex_matrix(sk, q).entries)
                )
        for i in range(sk.k):
            for j in range(sk.k):
                a, b = _generator_matrix(sk, i), _generator_matrix(sk, j)
                assert _mat_mul(a, b) == _mat_mul(b, a)


def test_matrix_rejects_negative_degree(g1):
    with pytest.raises(DegreeMismatch):
        vertex_matrix(g1, (-1,))


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


def test_classify_g1(g1):
    cc = classify_connectivity(g1, (8,))
    assert cc.irreducible and cc.primitive and cc.threshold == (1,)
    assert not cc.inconclusive


def test_classify_g2(g2):
    cc = classify_connectivity(g2, (8,))
    assert cc.irreducible and cc.primitive and cc.threshold == (2,)


def test_classify_two_cycle(two_cycle):
    cc = classify_connectivity(two_cycle, (8,))
    assert cc.irreducible
    assert not cc.primitive and cc.threshold is None
    assert cc.inconclusive  # odd powers always have zero diagonal


def test_classify_split_graph(split_graph):
    cc = classify_connectivity(split_graph, (8,))
    assert not cc.irreducible
    assert not cc.primitive and not cc.inconclusive


def test_classify_positive_degrees_that_never_stay_positive(blue_loop):
    # |Lambda^(i,0)| = 1 but every box above (i, 0) holds a red degree
    cc = classify_connectivity(blue_loop, (8, 8))
    assert cc.irreducible
    assert not cc.primitive and cc.threshold is None and cc.inconclusive


def test_classify_needs_bound_at_least_e(g1):
    with pytest.raises(DegreeMismatch):
        classify_connectivity(g1, (0,))


# ---------------------------------------------------------------------------
# Perron data
# ---------------------------------------------------------------------------


def test_perron_g4_is_trivial(g4):
    pd = perron_data(g4)
    assert pd.t == (1.0, 1.0)
    assert pd.a == {"v": 1.0} and pd.b == {"v": 1.0}
    assert pd.residual <= 1e-12


def test_perron_g2_matches_golden_ratio(g2):
    pd = perron_data(g2)
    assert abs(pd.t[0] - PHI) <= 1e-9
    norm = math.sqrt(PHI + 2)
    assert abs(pd.a["u"] - PHI / norm) <= 1e-9
    assert abs(pd.a["v"] - 1 / norm) <= 1e-9
    assert pd.a == pd.b  # the matrix is symmetric
    assert pd.normalization_deviation <= 1e-12


def test_perron_g3(g3):
    pd = perron_data(g3)
    assert abs(pd.t[0] - 2) <= 1e-9 and abs(pd.t[1] - 2) <= 1e-9
    assert abs(pd.a["v"] - 1) <= 1e-9 and abs(pd.b["v"] - 1) <= 1e-9


def test_perron_two_cycle_without_positive_power(two_cycle):
    # irreducible but not primitive: the escalating sum still turns positive
    pd = perron_data(two_cycle)
    assert abs(pd.t[0] - 1.0) <= 1e-9


def test_perron_eigen_equations(test_graphs):
    for sk in test_graphs:
        if not classify_connectivity(sk, dv.scaled(8, sk.k)).irreducible:
            continue
        pd = perron_data(sk)
        for p in dv.box(dv.zero(sk.k), dv.scaled(3, sk.k)):
            m = vertex_matrix(sk, p)
            tp = pd.t_power(p)
            for v in sk.vertices:
                lhs = sum(pd.a[u] * m.entry(u, v) for u in sk.vertices)
                assert abs(lhs - tp * pd.a[v]) <= 1e-10 * max(1.0, tp)
            for u in sk.vertices:
                rhs = sum(m.entry(u, v) * pd.b[v] for v in sk.vertices)
                assert abs(rhs - tp * pd.b[u]) <= 1e-10 * max(1.0, tp)
        assert all(t > 0 for t in pd.t)


def test_perron_converges_where_the_positive_combination_is_large():
    # r40's positive combination has spectral radius ~2.4e4, where an
    # absolute residual of 1e-12 lies below float64 resolution; the
    # residual is relative to the eigenvalue, so the iteration stops
    sk = random_1graph(random.Random(40), 40, 40)
    pd = perron_data(sk)
    m = vertex_matrix(sk, (1,))
    rho = max(abs(np.linalg.eigvals([[m.entry(u, v) for v in sk.vertices] for u in sk.vertices])))
    assert abs(pd.t[0] - rho) <= 1e-9 * rho
    assert abs(pd.t[0] - 2.2066424095) <= 1e-9


def _numpy_perron(sk):
    """t, a and b from numpy.linalg: t_i the spectral radius of M_i, and b
    and a the Perron right and left eigenvectors of M_0 + ... + M_{k-1}
    (irreducible, so each is unique up to scale), scaled so that
    sum a b = 1 and |a| = |b|."""
    gens = [
        np.array(vertex_matrix(sk, dv.unit(c, sk.k)).entries, dtype=float) for c in range(sk.k)
    ]
    t = [max(abs(np.linalg.eigvals(g))) for g in gens]

    def perron_vector(m):
        values, vectors = np.linalg.eig(m)
        v = vectors[:, np.argmax(values.real)].real
        return v / np.linalg.norm(v) * np.sign(v.sum())

    b = perron_vector(sum(gens))
    a = perron_vector(sum(gens).T)
    scale = math.sqrt(a @ b)
    return t, dict(zip(sk.vertices, a / scale)), dict(zip(sk.vertices, b / scale))


@pytest.mark.parametrize(
    "sk",
    [
        random_1graph(random.Random(40), 40, 40),
        combine(
            random_1graph(random.Random(1), 6, 4), random_1graph(random.Random(2), 6, 4), "product"
        ),
        combine(
            random_1graph(random.Random(3), 4, 3), random_1graph(random.Random(4), 5, 2), "product"
        ),
    ],
    ids=["r40", "p36", "product20"],
)
def test_perron_data_matches_numpy_eigendata(sk):
    pd = perron_data(sk)
    t, a, b = _numpy_perron(sk)
    assert all(abs(x - y) <= 1e-9 * y for x, y in zip(pd.t, t, strict=True))
    for v in sk.vertices:
        assert abs(pd.a[v] - a[v]) <= 1e-9
        assert abs(pd.b[v] - b[v]) <= 1e-9


def test_power_iteration_raises_when_it_runs_out_of_steps(g2):
    # g2's positive combination |Lambda^1| + |Lambda^2|, three steps short
    # of the tolerance
    m1, m2 = vertex_matrix(g2, (1,)).entries, vertex_matrix(g2, (2,)).entries
    a = [[float(x + y) for x, y in zip(r1, r2)] for r1, r2 in zip(m1, m2)]
    assert min(map(min, a)) > 0
    with pytest.raises(NotConverged, match="did not reach residual 1e-12"):
        _power_iteration(a, 1e-12, max_iter=3)
    # with the default budget the same matrix converges, to phi + phi^2
    vector, residual = _power_iteration(a, 1e-12)
    assert residual <= 1e-12 * (PHI + PHI**2) * (1 + 1e-9)
    assert abs(vector[1] / vector[0] - 1 / PHI) <= 1e-12


def test_perron_refuses_reducible(split_graph):
    with pytest.raises(NotIrreducible):
        perron_data(split_graph)


# ---------------------------------------------------------------------------
# AF towers
# ---------------------------------------------------------------------------


def test_af_g1(g1):
    af = af_multiplicities(g1, (3,), (1,))
    assert af.block_dims == {"v": 8}
    assert af.multiplicity.entries == ((2,),)
    assert af.consistent


def test_af_zero_level(test_graphs):
    for sk in test_graphs:
        af = af_multiplicities(sk, dv.zero(sk.k), dv.ones(sk.k))
        assert af.block_dims == {v: 1 for v in sk.vertices}


def test_af_g2(g2):
    af = af_multiplicities(g2, (1,), (1,))
    assert af.block_dims == {"u": 2, "v": 1}
    assert af.multiplicity.entries == ((1, 1), (1, 0))
    assert af.consistent


def test_af_counts_by_source(g2):
    # oracle: block dims count paths by source vertex
    for m in [(1,), (2,)]:
        dims = af_multiplicities(g2, m, (1,)).block_dims
        by_source = {v: 0 for v in g2.vertices}
        for lam in enumerate_morphisms(g2, m):
            by_source[lam.source] += 1
        assert dims == by_source


def test_af_consistency_everywhere(test_graphs):
    for sk in test_graphs:
        for m in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k)):
            for n in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k)):
                if dv.is_zero(n):
                    continue
                assert af_multiplicities(sk, m, n).consistent


def test_af_rejects_zero_n(g1):
    with pytest.raises(DegreeMismatch):
        af_multiplicities(g1, (1,), (0,))


# ---------------------------------------------------------------------------
# aperiodicity probe
# ---------------------------------------------------------------------------


def test_probe_g1_finds_witness(g1):
    result = aperiodicity_probe(g1, 2)
    assert isinstance(result, AperiodicWitness)
    assert set(result.windows) == {"v"}


def test_probe_g2_finds_witness(g2):
    result = aperiodicity_probe(g2, 2)
    assert isinstance(result, AperiodicWitness)
    assert set(result.windows) == {"u", "v"}


def test_probe_g4_reports_global_periods(g4):
    result = aperiodicity_probe(g4, 3)
    assert isinstance(result, GlobalPeriod)
    assert (1, 0) in result.periods


def test_probe_periodic_two_graph(g5_periodic):
    result = aperiodicity_probe(g5_periodic, 2)
    assert isinstance(result, GlobalPeriod)
    assert (1, -1) in result.periods
    assert all(p != (1, 0) for p in result.periods)


def test_probe_mixed_graph_is_inconclusive():
    # u carries a single fully periodic loop, v carries a free pair: no
    # global period survives and u never gets a witness
    sk = Skeleton(
        1,
        ("u", "v"),
        (
            ColoredEdge("lu", 0, "u", "u"),
            ColoredEdge("lv1", 0, "v", "v"),
            ColoredEdge("lv2", 0, "v", "v"),
        ),
        (),
    )
    from kgraphs.spectral import InconclusiveProbe

    result = aperiodicity_probe(sk, 2)
    assert isinstance(result, InconclusiveProbe)
    assert "u" in result.reason


def test_probe_depth_must_be_positive(g1):
    with pytest.raises(DegreeMismatch):
        aperiodicity_probe(g1, 0)
