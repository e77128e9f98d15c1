"""Counts, vertex matrices, enumeration and sampling at degrees far beyond
the interpreter's recursion limit, each against an independent closed form;
the two matrix engines against dense generator products; the memory the
counting engine keeps; and the degree checks of the public API."""

import json
import random

import pytest

from kgraphs import degrees as dv
from kgraphs.cli import run
from kgraphs.checks import AnalysisConfig, run_suite
from kgraphs.core import (
    ColoredEdge,
    Skeleton,
    _box_table,
    _generator_matrix,
    _mat_mul,
    _vm,
    combine,
    count_morphisms,
    enumerate_morphisms,
    factorize,
    sample_morphism,
    subblock,
    validate_skeleton,
)
from kgraphs.dynamics import connecting_morphism, sample_window, shift
from kgraphs.errors import DegreeMismatch
from kgraphs.measure import base_measure, haar_weight
from kgraphs.relations import RelationQuery, stable_equiv, unstable_equiv
from kgraphs.spectral import af_multiplicities, classify_connectivity, perron_data, vertex_matrix

from conftest import FIXTURES, load_fixture, schoolbook_product
from randgraphs import random_1graph, random_flip_2graph, random_twisted_2graph


def test_golden_mean_count_at_degree_2000(g2):
    # paths of length n in the golden mean graph number F(n + 3)
    a, b = 1, 1
    for _ in range(2000 + 1):
        a, b = b, a + b
    assert count_morphisms(g2, (2000,)) == b


def test_full_two_shift_matrix_at_degree_3000(g1):
    assert vertex_matrix(g1, (3000,)).entries == ((2**3000,),)


def test_flip_two_graph_count_at_degree_250_250(g3):
    assert count_morphisms(g3, (250, 250)) == 2**500


def test_one_point_graph_enumerates_and_samples_at_degree_1500_1500(g4):
    (only,) = enumerate_morphisms(g4, (1500, 1500))
    assert only.degree == (1500, 1500) and len(only.word) == 3000
    assert sample_morphism(g4, (1500, 1500), random.Random(0)) == only


def test_spectral_command_at_radius_600_is_inconclusive():
    doc = json.loads((FIXTURES / "g2.json").read_text())
    doc["config"] = {"radius": 600}
    report = run("spectral", json.dumps(doc))
    assert report.exit_code == 0, report.violations
    assert report.results["aperiodicity"]["result"] == "inconclusive"


@pytest.mark.parametrize(
    "call",
    [
        lambda sk: count_morphisms(sk, (-1, 2)),
        lambda sk: enumerate_morphisms(sk, (0, -1)),
        lambda sk: sample_morphism(sk, (-1, 0), random.Random(0)),
        lambda sk: vertex_matrix(sk, (2, -3)),
    ],
)
def test_negative_degrees_are_rejected(g3, call):
    with pytest.raises(DegreeMismatch):
        call(g3)


@pytest.mark.parametrize(
    "call",
    [
        lambda sk: count_morphisms(sk, (1,)),
        lambda sk: enumerate_morphisms(sk, (1, 1, 1)),
        lambda sk: sample_morphism(sk, (2,), random.Random(0)),
        lambda sk: vertex_matrix(sk, (1, 2, 3)),
        lambda sk: factorize(_path(sk), (1,), (0, 1)),
        lambda sk: factorize(_path(sk), (1, 0), (0, 1, 0)),
        lambda sk: subblock(_path(sk), (0,), (1, 1)),
        lambda sk: subblock(_path(sk), (0, 0), (1, 1, 1)),
        lambda sk: shift(_window(sk), (1,)),
        lambda sk: stable_equiv(RelationQuery(_window(sk), _window(sk), (0, 0, 0))),
        lambda sk: unstable_equiv(RelationQuery(_window(sk), _window(sk), (0,))),
        lambda sk: haar_weight(perron_data(sk), (1,), _path(sk)),
        lambda sk: base_measure(perron_data(sk), (1, 0, 0), _path(sk)),
        lambda sk: af_multiplicities(sk, (1,), (1, 1)),
        lambda sk: af_multiplicities(sk, (1, 1), (1, 1, 1)),
    ],
)
def test_wrong_length_degrees_are_rejected(g3, call):
    with pytest.raises(ValueError):
        call(g3)


def _path(sk):
    return enumerate_morphisms(sk, (1, 1))[-1]


def _window(sk):
    return sample_window(sk, 2, random.Random(0))


@pytest.mark.parametrize(
    "call",
    [
        lambda lam: factorize(lam, (-1, 1), (2, 0)),
        lambda lam: factorize(lam, (2, 1), (-1, 0)),
        lambda lam: factorize(lam, (1, 0), (1, 0)),
        lambda lam: factorize(lam, (2, 1), (0, 0)),
        lambda lam: subblock(lam, (-1, 0), (1, 1)),
        lambda lam: subblock(lam, (0, 0), (2, 1)),
        lambda lam: subblock(lam, (1, 0), (0, 1)),
        lambda lam: subblock(lam, (0, -1), (0, -1)),
    ],
)
def test_negative_and_out_of_box_splits_are_rejected(g3, call):
    with pytest.raises(DegreeMismatch):
        call(_path(g3))


@pytest.mark.parametrize("op", [dv.add, dv.sub, dv.leq, dv.meet, dv.join])
def test_degree_helpers_reject_a_rank_mismatch(op):
    op((1, 2), (3, 4))
    for a, b in [((1, 2), (3,)), ((1,), (3, 4)), ((), (0,))]:
        with pytest.raises(ValueError):
            op(a, b)


def _dense_product(sk, p):
    """M_0^(p_0) ... M_(k-1)^(p_(k-1)), one dense generator product at a time."""
    n = len(sk.vertices)
    out = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for c, pc in enumerate(p):
        for _ in range(pc):
            out = schoolbook_product(out, _generator_matrix(sk, c))
    return out


def _non_commuting():
    # color 0 steps v -> u, color 1 loops at u: M_0 M_1 = 0 != M_1 M_0
    edges = (ColoredEdge("f", 0, "u", "v"), ColoredEdge("g", 1, "u", "u"))
    return Skeleton(2, ("u", "v"), edges, ())


def test_binary_powers_box_table_and_dense_products_agree(fixture_graphs, random_skeletons):
    rank3 = combine(random_skeletons[3], random_1graph(random.Random(2), 2, 1), "product")
    flip = random_flip_2graph(random.Random(3), 3, 2)
    odd = _non_commuting()
    m0, m1 = _generator_matrix(odd, 0), _generator_matrix(odd, 1)
    assert schoolbook_product(m0, m1) != schoolbook_product(m1, m0)
    for sk in [*fixture_graphs.values(), rank3, flip, odd]:
        top = dv.scaled(4, sk.k)
        table = _box_table(sk, top)
        assert list(table) == list(dv.box(dv.zero(sk.k), top))
        for p, entries in table.items():
            assert _vm(sk, p) == entries == _dense_product(sk, p), (sk.k, p)


@pytest.mark.parametrize("seed", range(8))
def test_twisted_2graphs_count_as_powers_of_the_blue_matrix_and_pass_the_suite(seed):
    # red edges are the blue paths of length p, so |Lambda^(m,n)| is the
    # entry sum of A^(m+pn), with A the blue matrix
    rng = random.Random(seed)
    p = rng.choice((1, 2))
    sk = random_twisted_2graph(rng, rng.randint(2, 4), rng.randint(0, 3), p)
    assert len(sk.vertices) > 1 and validate_skeleton(sk).ok
    idx = {v: i for i, v in enumerate(sk.vertices)}
    size = len(sk.vertices)
    a = [[0] * size for _ in range(size)]
    for e in sk.edges:
        if e.color == 0:
            a[idx[e.range]][idx[e.source]] += 1
    powers = [tuple(tuple(int(i == j) for j in range(size)) for i in range(size))]
    while len(powers) <= 2 + 2 * p:
        powers.append(schoolbook_product(powers[-1], a))
    for m in range(3):
        for n in range(3):
            assert count_morphisms(sk, (m, n)) == sum(map(sum, powers[m + p * n])), (m, n)
    fails = [(r.name, r.detail) for r in run_suite(sk, AnalysisConfig()) if r.failed]
    assert not fails


def _random_matrix(rng, n, bits):
    """An n x n matrix of entries in [0, 2^bits], with one entry at the top
    of that range and, for n > 1, one zero row."""
    rows = [[rng.randint(0, 2**bits) for _ in range(n)] for _ in range(n)]
    rows[rng.randrange(n)][rng.randrange(n)] = 2**bits
    if n > 1:
        rows[rng.randrange(n)] = [0] * n
    return tuple(map(tuple, rows))


def test_mat_mul_matches_the_schoolbook_product():
    # the packed product takes its scalars from the operand with the
    # narrower entries: the width pairs put each operand on that side
    rng = random.Random(18)
    widths = [(0, 0), (1, 1), (1, 3000), (3000, 1), (64, 65), (65, 64), (3000, 3000)]
    zero = lambda n: ((0,) * n,) * n  # noqa: E731
    for n in (1, 2, 3, 7, 24):
        for bits_a, bits_b in widths:
            a, b = _random_matrix(rng, n, bits_a), _random_matrix(rng, n, bits_b)
            assert _mat_mul(a, b) == schoolbook_product(a, b), (n, bits_a, bits_b)
        a = _random_matrix(rng, n, 3000)
        assert _mat_mul(a, zero(n)) == _mat_mul(zero(n), a) == zero(n)
        # every entry at the top of a whole number of bytes: a product
        # entry then needs the bits of the inner dimension beyond them
        for bits in (8, 3000):
            full = ((2**bits - 1,) * n,) * n
            assert _mat_mul(full, full) == ((n * (2**bits - 1) ** 2,) * n,) * n


def test_counting_memo_keeps_only_binary_powers():
    calls = (
        ("g1", lambda sk: vertex_matrix(sk, (3000,)), (3000,)),
        ("g2", lambda sk: count_morphisms(sk, (2000,)), (2000,)),
        ("g3", lambda sk: count_morphisms(sk, (250, 250)), (250, 250)),
    )
    held = {}
    for name, call, p in calls:
        sk = held[name] = load_fixture(name)
        call(sk)
        assert set(sk._memo) <= {"powers"}
        assert len(sk._memo.get("powers", ())) <= sk.k * max(p).bit_length()
    # counts fold a vector through sparse steps and keep no matrix at all
    assert held["g2"]._memo == held["g3"]._memo == {}


def test_sampling_connectors_and_classification_keep_nothing():
    g2, g3 = load_fixture("g2"), load_fixture("g3")
    sample_morphism(g3, (40, 40), random.Random(0))
    assert connecting_morphism(g2, "u", "v", (50,)) is not None
    classify_connectivity(g3, (8, 8))
    classify_connectivity(g2, (8,))
    assert g2._memo == {} and g3._memo == {}
