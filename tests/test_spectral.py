"""Vertex matrices, connectivity, Perron data, AF blocks, aperiodicity."""

import ast
import math
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from kgraphs import degrees as dv
from kgraphs import spectral
from kgraphs.cli import run
from kgraphs.core import (
    ColoredEdge,
    Skeleton,
    SquareRule,
    _generator_matrix,
    combine,
    enumerate_morphisms,
)
from kgraphs.errors import DegreeMismatch, NotConverged, NotIrreducible, ValidationFailure
from kgraphs.spectral import (
    AperiodicWitness,
    GlobalPeriod,
    _is_irreducible,
    _power_iteration,
    af_multiplicities,
    aperiodicity_probe,
    classify_connectivity,
    perron_data,
    vertex_matrix,
)

import oracle
from conftest import load_fixture, schoolbook_product
from randgraphs import document, make_random_skeletons, random_1graph, random_flip_2graph

PHI = (1 + math.sqrt(5)) / 2
R40 = random_1graph(random.Random(40), 40, 40)
P36 = combine(
    random_1graph(random.Random(1), 6, 4), random_1graph(random.Random(2), 6, 4), "product"
)


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


def test_entry_reads_the_entries_by_vertex_position():
    m = vertex_matrix(R40, (1,))
    for i, u in enumerate(R40.vertices):
        for j, v in enumerate(R40.vertices):
            assert m.entry(u, v) == m.entries[i][j]


def test_semigroup_and_commutation(test_graphs):
    for sk in test_graphs:
        for p in dv.box(dv.zero(sk.k), dv.ones(sk.k)):
            for q in dv.box(dv.zero(sk.k), dv.ones(sk.k)):
                a, b = vertex_matrix(sk, p).entries, vertex_matrix(sk, q).entries
                assert vertex_matrix(sk, dv.add(p, q)).entries == schoolbook_product(a, b)
        for i in range(sk.k):
            for j in range(sk.k):
                a, b = _generator_matrix(sk, i), _generator_matrix(sk, j)
                assert schoolbook_product(a, b) == schoolbook_product(b, a)


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


def _threshold_by_definition(sk, bound):
    """The least m in (norm_max, total, m) order that qualifies: m != 0 and
    |Lambda^n| > 0 for every n in [m, bound], read off one matrix per n."""
    positive = {n: vertex_matrix(sk, n).is_positive() for n in dv.box(dv.zero(sk.k), bound)}
    return min(
        (m for m in positive if not dv.is_zero(m) and all(map(positive.get, dv.box(m, bound)))),
        key=lambda m: (dv.norm_max(m), dv.total(m), m),
        default=None,
    )


def _missing_a_color():
    """Unvalidated skeletons where a vertex misses a color.  In the first
    three, degrees that avoid the missing color can be positive and none
    that uses it is, so positivity is not upward closed; in the 1-graph,
    nothing enters v."""
    e = ColoredEdge
    fib = (e("a", 0, "u", "u"), e("b", 0, "u", "v"), e("c", 0, "v", "u"))
    loops = (e("b1", 0, "v", "v"), e("b2", 0, "v", "v"), e("r", 1, "v", "v"))
    return [
        Skeleton(2, ("v",), (e("b", 0, "v", "v"),), ()),
        Skeleton(2, ("u", "v"), fib, ()),
        Skeleton(3, ("v",), loops, ()),
        Skeleton(1, ("u", "v"), (e("a", 0, "u", "u"), e("b", 0, "u", "v")), ()),
    ]


def _connectivity_graphs():
    graphs = [load_fixture(name) for name in ("g1", "g2", "g3", "g4")]
    for seed in range(8):
        graphs += make_random_skeletons(seed)
    for s in range(6):
        # pure cycles are periodic; a chord makes most of them primitive
        graphs.append(random_1graph(random.Random(s), 2 + s, s % 3))
    for s in range(3):
        rng = random.Random(100 + s)
        graphs.append(combine(random_1graph(rng, 2 + s, 1), random_1graph(rng, 3, s), "product"))
    return graphs + _missing_a_color()


def test_connectivity_matches_its_definition():
    bounds = {
        1: [(1,), (2,), (5,), (9,)],
        2: [(1, 1), (3, 3), (5, 2), (1, 6)],
        3: [(1, 1, 1), (3, 3, 3), (2, 4, 1)],
    }
    for sk in _connectivity_graphs():
        # the first positive corner vouches for the degrees above it only
        # when the generators commute, as they do once the squares biject
        gens = [_generator_matrix(sk, c) for c in range(sk.k)]
        assert all(
            schoolbook_product(x, y) == schoolbook_product(y, x) for x in gens for y in gens
        )
        for bound in bounds[sk.k]:
            cc = classify_connectivity(sk, bound)
            threshold = _threshold_by_definition(sk, bound)
            assert cc.threshold == threshold, (sk, bound)
            assert cc.primitive == (threshold is not None)
            assert cc.inconclusive == (cc.irreducible and threshold is None)


def test_connectivity_refuses_generators_that_do_not_commute():
    # all four color-0 and color-2 edges on u, v, and one color-1 edge u <- v:
    # |Lambda^(1,2,1)| = J N^2 J = 0 for the all-ones J and N = M_1, so no
    # degree qualifies, although the first corner (1,1,1) is positive
    e = ColoredEdge
    pairs = [("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")]
    edges = (
        *(e(f"a{i}", 0, r, s) for i, (r, s) in enumerate(pairs)),
        e("n", 1, "u", "v"),
        *(e(f"c{i}", 2, r, s) for i, (r, s) in enumerate(pairs)),
    )
    sk = Skeleton(3, ("u", "v"), edges, ())
    assert _threshold_by_definition(sk, (2, 2, 2)) is None
    with pytest.raises(ValidationFailure, match="M_0 and M_1 do not commute"):
        classify_connectivity(sk, (2, 2, 2))


def _reaches_every_pair(sk):
    """All-pairs reachability: the transitive closure of the edge relation
    holds every ordered pair, so each is joined by a path of length >= 1."""
    step = {(e.range, e.source) for e in sk.edges}
    closure = set(step)
    while more := {(u, w) for u, v in closure for x, w in step if v == x} - closure:
        closure |= more
    return len(closure) == len(sk.vertices) ** 2


def test_irreducibility_matches_all_pairs_reachability():
    graphs = [
        Skeleton(1, ("v",), (), ()),  # one vertex and no loop
        # u -> v -> w -> v: nothing enters u, and u lies on no cycle
        Skeleton(
            1,
            ("u", "v", "w"),
            (
                ColoredEdge("a", 0, "v", "u"),
                ColoredEdge("b", 0, "w", "v"),
                ColoredEdge("c", 0, "v", "w"),
            ),
            (),
        ),
    ]
    for s in range(200):
        rng = random.Random(s)
        n, k = rng.randint(1, 5), rng.randint(1, 2)
        vertices = tuple(f"w{i}" for i in range(n))
        edges = tuple(
            ColoredEdge(f"e{i}", rng.randrange(k), rng.choice(vertices), rng.choice(vertices))
            for i in range(rng.randint(0, 3 * n))
        )
        graphs.append(Skeleton(k, vertices, edges, ()))
    verdicts = [_is_irreducible(sk) for sk in graphs]
    assert verdicts == [_reaches_every_pair(sk) for sk in graphs]
    assert verdicts[:2] == [False, False] and 40 <= sum(verdicts) <= 160


def test_the_spectral_layer_builds_only_the_tables_it_needs(monkeypatch, g2):
    tops = []
    box_table = spectral._box_table
    monkeypatch.setattr(
        spectral, "_box_table", lambda sk, top: tops.append(top) or box_table(sk, top)
    )
    for sk in (g2, R40, P36):
        perron_data(sk)
    assert tops == []
    classify_connectivity(g2, (60,))
    assert tops == [(2,)]
    # a full box of 141^3 matrices once ran out of memory here
    rand4 = make_random_skeletons(7)[4]
    assert run("spectral", document(rand4), {"bound": 140}).exit_code == 0


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
    # irreducible but not primitive: I + M is primitive all the same
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
    # r40 once stalled a power iteration on a positive combination of
    # spectral radius ~2.4e4, where an absolute residual of 1e-12 lies below
    # float64 resolution
    sk = R40
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
        load_fixture("g2"),
        R40,
        P36,
        combine(
            random_1graph(random.Random(3), 4, 3), random_1graph(random.Random(4), 5, 2), "product"
        ),
        *(random_1graph(random.Random(s), 24, 48) for s in range(5)),
    ],
    ids=["g2", "r40", "p36", "product20", *(f"r24-{s}" for s in range(5))],
)
def test_perron_data_matches_numpy_eigendata(sk):
    pd = perron_data(sk)
    t, a, b = _numpy_perron(sk)
    assert all(abs(x - y) <= 1e-12 * y for x, y in zip(pd.t, t, strict=True))
    for v in sk.vertices:
        assert abs(pd.a[v] - a[v]) <= 1e-12
        assert abs(pd.b[v] - b[v]) <= 1e-12


def test_power_iteration_raises_when_it_runs_out_of_steps(g2, monkeypatch):
    # row u of g2's I + M sums u and the sources of the edges into u; three
    # steps stop short of the tolerance
    idx = {v: i for i, v in enumerate(g2.vertices)}
    lists = [[idx[u]] + [idx[e.source] for e in g2.edges if e.range == u] for u in g2.vertices]
    assert sorted(map(len, lists)) == [2, 3]
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "POWER_STEPS", 3)
        with pytest.raises(NotConverged, match="moved by more than 1e-13 after 3 steps"):
            _power_iteration(lists, 1e-12)
    # with the default budget the same lists converge, to M's Perron vector
    vector = _power_iteration(lists, 1e-12)
    assert max(vector) == 1.0
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


def one_vertex_graph(k):
    """One loop per color and flip squares e_i e_j = e_j e_i: every path
    is invariant under every period."""
    edges = tuple(ColoredEdge(f"e{c}", c, "v", "v") for c in range(k))
    squares = tuple(
        SquareRule((i, j), (f"e{i}", f"e{j}"), (f"e{j}", f"e{i}"))
        for i, j in combinations(range(k), 2)
    )
    return Skeleton(k, ("v",), edges, squares)


def _probe_cases():
    flips = []
    for seed in range(12):
        rng = random.Random(seed)
        flips.append(random_flip_2graph(rng, rng.randint(1, 3), rng.randint(1, 3)))
    graphs = [load_fixture(n) for n in ("g1", "g2", "g3", "g4")]
    graphs += make_random_skeletons(7) + flips
    cases = [(sk, depth) for sk in graphs for depth in (1, 2, 3)]
    cases += [(one_vertex_graph(k), depth) for k in (1, 2, 3) for depth in (1, 2, 3)]
    return cases + [(one_vertex_graph(4), depth) for depth in (1, 2)]


def test_probe_matches_the_slot_pair_reference():
    cases = _probe_cases()
    assert len(cases) == 74
    outcomes = set()
    for sk, depth in cases:
        got = aperiodicity_probe(sk, depth)
        assert repr(got) == repr(oracle.aperiodicity_probe(sk, depth)), (sk, depth)
        outcomes.add(type(got))
    assert outcomes == {AperiodicWitness, GlobalPeriod, spectral.InconclusiveProbe}


def test_spectral_does_not_read_the_grid_layout():
    # the probe reads boxes through GridShape.plan: where the unit edges
    # sit in a grid stays behind core and dynamics
    tree = ast.parse(Path(spectral.__file__).read_text())
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not named & {"units", "index", "_reads"}


def test_rank_five_spectral_reports_every_candidate_as_a_global_period():
    # 3,124 = 5^5 - 1 candidate periods at depth 2 (the default radius),
    # on a grid of 3,840 unit edges
    report = run("spectral", document(one_vertex_graph(5)))
    assert report.exit_code == 0
    result = report.results["aperiodicity"]
    assert result["result"] == "global-period"
    assert len(result["periods"]) == 3124
