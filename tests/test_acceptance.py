"""Acceptance criteria: one test per criterion, each timed against its
budget and printing a PASS/FAIL line (run with -s to see them)."""

import math
import random
import time

from kgraphs import degrees as dv
from kgraphs.checks import (
    AnalysisConfig,
    Suite,
    check_bracket_axioms,
    check_bracket_uniqueness,
    check_contraction,
    check_expansiveness,
    check_factorization_uniqueness,
    check_fibered_product,
    check_opposite_swap,
    check_shift_conjugation,
    check_stable_nesting,
)
from kgraphs.cli import run
from kgraphs.core import compose, enumerate_morphisms
from kgraphs.dynamics import mixing_lag
from kgraphs.measure import (
    CylinderSet,
    DiagonalFunction,
    beta_transport,
    conditional_measure,
    parry_measure,
    trace_eval,
    vertex_cylinder,
)
from kgraphs.spectral import (
    af_multiplicities,
    classify_connectivity,
    perron_data,
    vertex_matrix,
)

from conftest import FIXTURES, golden_report, schoolbook_product
from oracle import assert_matches_oracle

PHI = 1.618033988749895


def _criterion(num: int, label: str, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


def _irreducible(test_graphs):
    return [
        sk
        for sk in test_graphs
        if classify_connectivity(sk, dv.scaled(8, sk.k)).irreducible
    ]


def test_criterion_01_factorization(test_graphs):
    # the definition-level oracle: on every degree of [0, 2e], each
    # composable pair glues to one path, and compose, factorize and
    # subblock agree with gluing and restriction of grid colourings
    def body():
        for sk in test_graphs:
            assert_matches_oracle(sk)
            res = check_factorization_uniqueness(Suite(sk, AnalysisConfig()))
            assert res.status == "pass", res.detail

    _criterion(1, "factorization round-trip and uniqueness", 10.0, body)


def test_criterion_02_semigroup(test_graphs):
    def body():
        for sk in test_graphs:
            three = dv.scaled(3, sk.k)
            mats = {p: vertex_matrix(sk, p).entries for p in dv.box(dv.zero(sk.k), three)}
            for p in dv.box(dv.zero(sk.k), three):
                for q in dv.box(dv.zero(sk.k), three):
                    assert vertex_matrix(sk, dv.add(p, q)).entries == schoolbook_product(
                        mats[p], mats[q]
                    )

    _criterion(2, "exact semigroup law |L^(p+q)| = |L^p||L^q|", 5.0, body)


def test_criterion_03_perron(g2, g3, test_graphs):
    def body():
        pd2 = perron_data(g2)
        assert abs(pd2.t[0] - PHI) <= 1e-9
        assert abs(sum(pd2.a[v] * pd2.b[v] for v in g2.vertices) - 1) <= 1e-12
        pd3 = perron_data(g3)
        assert abs(pd3.t[0] - 2) <= 1e-9 and abs(pd3.t[1] - 2) <= 1e-9
        for sk in _irreducible(test_graphs):
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

    _criterion(3, "Perron data against the golden-ratio oracle", 5.0, body)


def test_criterion_04_parry_consistency(test_graphs):
    def body():
        for sk in _irreducible(test_graphs):
            pd = perron_data(sk)
            mass = sum(
                parry_measure(pd, vertex_cylinder(pd, v)).value for v in sk.vertices
            )
            assert abs(mass - 1.0) <= 1e-12
            ones = dv.ones(sk.k)
            step = enumerate_morphisms(sk, ones)
            for d in dv.box(dv.zero(sk.k), dv.scaled(3, sk.k)):
                for lam in enumerate_morphisms(sk, d):
                    mu = parry_measure(pd, CylinderSet(lam, dv.zero(sk.k))).value
                    right = sum(
                        parry_measure(pd, CylinderSet(compose(lam, nu), dv.zero(sk.k))).value
                        for nu in step
                        if nu.range == lam.source
                    )
                    left = sum(
                        parry_measure(pd, CylinderSet(compose(nu, lam), dv.neg(ones))).value
                        for nu in step
                        if nu.source == lam.range
                    )
                    assert abs(right - mu) <= 1e-9 and abs(left - mu) <= 1e-9

    _criterion(4, "Parry expansion identities and total mass", 10.0, body)


def test_criterion_05_product_and_scaling(test_graphs):
    def body():
        for sk in _irreducible(test_graphs):
            pd = perron_data(sk)
            halves = [
                m
                for d in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k))
                for m in enumerate_morphisms(sk, d)
            ]
            for v in sk.vertices:
                pasts = [m for m in halves if m.source == v]
                futures = [m for m in halves if m.range == v]
                for past in pasts:
                    stable = conditional_measure(pd, "stable", past).value
                    for fut in futures:
                        mu = parry_measure(
                            pd, CylinderSet(compose(past, fut), dv.neg(past.degree))
                        ).value
                        unstable = conditional_measure(pd, "unstable", fut).value
                        assert abs(mu - stable * unstable) <= 1e-9
            # scaling mu_s = t^p mu_s^(sigma^p) o sigma^p on depth <= 2 cylinders
            for lam in halves:
                base = conditional_measure(pd, "stable", lam).value
                for p in dv.box(dv.zero(sk.k), dv.ones(sk.k)):
                    if dv.is_zero(p):
                        continue
                    for xi in enumerate_morphisms(sk, p):
                        if xi.range != lam.source:
                            continue
                        ext = conditional_measure(pd, "stable", compose(lam, xi)).value
                        assert abs(pd.t_power(p) * ext - base) <= 1e-9
            # trace scaling for |n_i| <= 2
            f = DiagonalFunction(
                tuple(
                    (1.0 + i, CylinderSet(lam, dv.zero(sk.k)))
                    for i, lam in enumerate(halves[:4])
                )
            )
            base = trace_eval(pd, f)
            for n in dv.box(dv.scaled(-2, sk.k), dv.scaled(2, sk.k)):
                got = trace_eval(pd, beta_transport(pd, f, n))
                assert abs(got - pd.t_power(n) * base) <= 1e-9 * max(1.0, abs(base) * pd.t_power(n))

    _criterion(5, "product decomposition and scaling laws", 10.0, body)


def test_criterion_06_bracket(g1, g3):
    def body():
        cfg = AnalysisConfig(radius=2)
        for sk in (g1, g3):
            suite = Suite(sk, cfg)
            axioms = check_bracket_axioms(suite)
            assert not axioms.failed, axioms.detail
            unique = check_bracket_uniqueness(suite)
            assert unique.status == "pass", unique.detail

    _criterion(6, "bracket axioms and uniqueness, exhaustive at N=2", 30.0, body)


def test_criterion_07_expansive_contraction(fixture_graphs):
    def body():
        cfg = AnalysisConfig(radius=2)
        for sk in fixture_graphs.values():
            suite = Suite(sk, cfg)
            exp = check_expansiveness(suite)
            assert not exp.failed, exp.detail
            con = check_contraction(suite)
            assert not con.failed, con.detail

    _criterion(7, "expansiveness and fiber contraction, exhaustive at N=2", 30.0, body)


def test_criterion_08_mixing(g1, g2):
    def body():
        rng = random.Random(0)
        for sk in (g1, g2):
            pool = enumerate_morphisms(sk, (1,)) + enumerate_morphisms(sk, (2,))
            cc = classify_connectivity(sk, (8,))
            for _ in range(20):
                u = CylinderSet(rng.choice(pool), (rng.randint(-2, 2),))
                v = CylinderSet(rng.choice(pool), (rng.randint(-2, 2),))
                lag = mixing_lag(sk, u, v, cc)
                assert lag.verified, f"no connector for {u!r} meets sigma^q {v!r}"

    _criterion(8, "mixing lag Q on 20 random cylinder pairs", 10.0, body)


def test_criterion_09_relations(fixture_graphs):
    def body():
        cfg = AnalysisConfig(radius=2)
        for sk in fixture_graphs.values():
            suite = Suite(sk, cfg)
            for fn in (
                check_stable_nesting,
                check_shift_conjugation,
                check_fibered_product,
                check_opposite_swap,
            ):
                res = fn(suite)
                assert not res.failed, f"{res.name} on this graph: {res.detail}"

    _criterion(9, "relation identities, exhaustive at N=2", 30.0, body)


def test_criterion_10_af_towers(test_graphs):
    def body():
        for sk in test_graphs:
            two = dv.scaled(2, sk.k)
            for m in dv.box(dv.zero(sk.k), two):
                for n in dv.box(dv.zero(sk.k), two):
                    if dv.is_zero(n):
                        continue
                    af = af_multiplicities(sk, m, n)
                    assert af.consistent
                    assert af.multiplicity.entries == vertex_matrix(sk, n).entries

    _criterion(10, "AF block dims and inclusion multiplicities", 5.0, body)


def test_criterion_11_end_to_end():
    def body():
        for name in ("g1", "g2", "g3", "g4"):
            text = (FIXTURES / f"{name}.json").read_text()
            first = run("suite", text)
            assert first.exit_code == 0, f"{name}: {first.violations}"
            second = run("suite", text)
            assert second.exit_code == 0
            assert first.render() == second.render(), f"{name}: nondeterministic report"
            assert first.render() == golden_report(name, "suite"), f"{name}: report changed"

    _criterion(11, "suite command exits 0 with deterministic, golden reports", math.inf, body)
