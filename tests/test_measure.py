"""Parry measure, fiber measures, base measure, Haar weights, trace."""

import math
from dataclasses import FrozenInstanceError

import pytest

from kgraphs import checks
from kgraphs import degrees as dv
from kgraphs.core import compose, enumerate_morphisms, factorize, identity, make_morphism
from kgraphs.errors import DegreeMismatch, GraphMismatch, OutOfBox
from kgraphs.measure import (
    CylinderSet,
    DiagonalFunction,
    MeasureValue,
    base_measure,
    beta_transport,
    conditional_measure,
    fiber_masses,
    fiber_measure,
    haar_weight,
    parry_measure,
    trace_eval,
    vertex_cylinder,
)
from kgraphs.spectral import perron_data

PHI = (1 + math.sqrt(5)) / 2
TOL = 1e-9


@pytest.fixture(scope="module")
def pd1(g1):
    return perron_data(g1)


@pytest.fixture(scope="module")
def pd2(g2):
    return perron_data(g2)


@pytest.fixture(scope="module")
def pd3(g3):
    return perron_data(g3)


# ---------------------------------------------------------------------------
# the measure itself
# ---------------------------------------------------------------------------


def test_parry_g1_word(pd1, g1):
    mv = parry_measure(pd1, CylinderSet(make_morphism(g1, ["a", "b", "a"]), (0,)))
    assert mv.value == pytest.approx(0.125, abs=1e-12)


def test_parry_offset_never_enters(pd1, g1):
    lam = make_morphism(g1, ["a", "b"])
    values = {parry_measure(pd1, CylinderSet(lam, (n,))).value for n in (-3, 0, 5)}
    assert len(values) == 1


def test_vertex_cylinders_sum_to_one(test_graphs):
    from kgraphs.spectral import classify_connectivity

    for sk in test_graphs:
        if not classify_connectivity(sk, dv.scaled(8, sk.k)).irreducible:
            continue
        pd = perron_data(sk)
        total = sum(parry_measure(pd, vertex_cylinder(pd, v)).value for v in sk.vertices)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_parry_g2_loop(pd2, g2):
    mv = parry_measure(pd2, CylinderSet(make_morphism(g2, ["uu"]), (0,)))
    assert mv.value == pytest.approx(1 / math.sqrt(5), abs=TOL)


def test_formula_trace_reconstructs(pd2, g2):
    for lam in enumerate_morphisms(g2, (2,)):
        mv = parry_measure(pd2, CylinderSet(lam, (0,)))
        assert mv.reconstruct(pd2) == pytest.approx(mv.value, abs=1e-15)
        assert mv.a_vertex == lam.range and mv.b_vertex == lam.source


def test_measure_values_match_the_public_constructor(pd2, pd3, g2, g3):
    # parry_measure and conditional_measure fill the slots of MeasureValue
    # directly: each value must be the one MeasureValue(...) builds, and
    # as frozen
    for pd, sk in [(pd2, g2), (pd3, g3)]:
        for lam in enumerate_morphisms(sk, dv.scaled(2, sk.k)):
            exp = dv.neg(lam.degree)
            a, b, tp = pd.a[lam.range], pd.b[lam.source], pd.t_power(exp)
            pairs = [
                (
                    parry_measure(pd, CylinderSet(lam, dv.zero(sk.k))),
                    MeasureValue(tp * a * b, exp, lam.range, a, lam.source, b),
                ),
                (
                    conditional_measure(pd, "stable", lam),
                    MeasureValue(tp * a, exp, a_vertex=lam.range, a_value=a),
                ),
                (
                    conditional_measure(pd, "unstable", lam),
                    MeasureValue(tp * b, exp, b_vertex=lam.source, b_value=b),
                ),
            ]
            for built, public in pairs:
                assert built == public and hash(built) == hash(public)
                assert repr(built) == repr(public)
                assert built.reconstruct(pd) == public.reconstruct(pd)
                with pytest.raises(FrozenInstanceError):
                    built.value = 0.0
                with pytest.raises(FrozenInstanceError):
                    built.b_vertex = "v"


def test_t_power_multiplies_in_color_order(pd2, pd3):
    for pd in (pd2, pd3):
        for p in dv.box(dv.scaled(-3, pd.skeleton.k), dv.scaled(3, pd.skeleton.k)):
            out = 1.0
            for ti, pi in zip(pd.t, p):
                out *= ti**pi
            assert pd.t_power(p) == out, p
    for p in [(1,), (1, 2, 3), ()]:
        with pytest.raises(DegreeMismatch, match="rank 2"):
            pd3.t_power(p)


def test_expansion_identities(pd1, pd2, pd3, g1, g2, g3):
    for pd, sk in ((pd1, g1), (pd2, g2), (pd3, g3)):
        lams = [
            m
            for d in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k))
            for m in enumerate_morphisms(sk, d)
        ]
        for lam in lams:
            mu = parry_measure(pd, CylinderSet(lam, dv.zero(sk.k))).value
            for m in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k)):
                if dv.is_zero(m):
                    continue
                right = sum(
                    parry_measure(pd, CylinderSet(compose(lam, nu), dv.zero(sk.k))).value
                    for nu in enumerate_morphisms(sk, m)
                    if nu.range == lam.source
                )
                left = sum(
                    parry_measure(pd, CylinderSet(compose(nu, lam), dv.neg(m))).value
                    for nu in enumerate_morphisms(sk, m)
                    if nu.source == lam.range
                )
                assert right == pytest.approx(mu, abs=TOL)
                assert left == pytest.approx(mu, abs=TOL)


def test_parry_graph_mismatch(pd1, g2):
    with pytest.raises(GraphMismatch):
        parry_measure(pd1, CylinderSet(make_morphism(g2, ["uu"]), (0,)))


# ---------------------------------------------------------------------------
# conditional fiber measures
# ---------------------------------------------------------------------------


def test_conditional_stable_g1(pd1, g1):
    assert conditional_measure(pd1, "stable", make_morphism(g1, ["a"])).value == 0.5


def test_conditional_identity_masses(pd2, g2):
    for v in g2.vertices:
        ident = identity(g2, v)
        assert conditional_measure(pd2, "stable", ident).value == pytest.approx(pd2.a[v])
        assert conditional_measure(pd2, "unstable", ident).value == pytest.approx(pd2.b[v])


def test_stable_fiber_total_mass(pd1, pd2, g1, g2):
    # the depth-m past cylinders ending at v partition the stable fiber
    for pd, sk in ((pd1, g1), (pd2, g2)):
        for m in range(1, 4):
            for v in sk.vertices:
                total = sum(
                    conditional_measure(pd, "stable", lam).value
                    for lam in enumerate_morphisms(sk, (m,))
                    if lam.source == v
                )
                assert total == pytest.approx(pd.a[v], abs=TOL)
                dual = sum(
                    conditional_measure(pd, "unstable", lam).value
                    for lam in enumerate_morphisms(sk, (m,))
                    if lam.range == v
                )
                assert dual == pytest.approx(pd.b[v], abs=TOL)


def test_conditional_rejects_bad_side(pd1, g1):
    with pytest.raises(ValueError):
        conditional_measure(pd1, "sideways", make_morphism(g1, ["a"]))


def test_product_decomposition(pd1, pd3, g1, g3):
    for pd, sk in ((pd1, g1), (pd3, g3)):
        halves = [
            m
            for d in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k))
            for m in enumerate_morphisms(sk, d)
        ]
        for v in sk.vertices:
            for past in halves:
                if past.source != v:
                    continue
                for fut in halves:
                    if fut.range != v:
                        continue
                    mu = parry_measure(
                        pd, CylinderSet(compose(past, fut), dv.neg(past.degree))
                    ).value
                    split = (
                        conditional_measure(pd, "stable", past).value
                        * conditional_measure(pd, "unstable", fut).value
                    )
                    assert mu == pytest.approx(split, abs=TOL)


# ---------------------------------------------------------------------------
# base measure and disintegration
# ---------------------------------------------------------------------------


def _base_oracle(pd, sk, p, nu, depth):
    """Solve for nu_{s,p}(Z(nu)) from the disintegration equations alone:
    partition Z(nu) by full-depth one-sided windows and divide out the
    constant fiber mass t^p a(r(omega)) of each cell."""
    total = 0.0
    for omega in enumerate_morphisms(sk, depth):
        head, _ = factorize(omega, nu.degree, dv.sub(depth, nu.degree))
        if head != nu:
            continue
        mu = parry_measure(pd, CylinderSet(omega, p)).value
        total += mu / (pd.t_power(p) * pd.a[omega.range])
    return total


def test_base_measure_g1(pd1, g1):
    assert base_measure(pd1, (0,), make_morphism(g1, ["a"])).value == 0.5
    assert base_measure(pd1, (0,), identity(g1, "v")).value == 1.0


def test_base_measure_matches_disintegration_oracle(pd1, pd2, g1, g2):
    for pd, sk in ((pd1, g1), (pd2, g2)):
        for p in ((0,), (1,)):
            for d in ((0,), (1,), (2,)):
                for nu in enumerate_morphisms(sk, d):
                    oracle = _base_oracle(pd, sk, p, nu, (3,))
                    assert base_measure(pd, p, nu).value == pytest.approx(oracle, abs=TOL)


def test_base_measure_g2_loop(pd2, g2):
    # closed form t^-(p+d) b(s): for the loop at u this is phi^-1 b(u)
    got = base_measure(pd2, (0,), make_morphism(g2, ["uu"])).value
    assert got == pytest.approx(pd2.b["u"] / PHI, abs=TOL)


def test_base_measure_rejects_negative_p(pd1, g1):
    with pytest.raises(DegreeMismatch):
        base_measure(pd1, (-1,), make_morphism(g1, ["a"]))


def test_fiber_measure_past_cylinder_is_conditional(pd1, g1):
    z = make_morphism(g1, ["a", "a", "a"])
    lam = make_morphism(g1, ["a"])
    got = fiber_measure(pd1, (0,), z, CylinderSet(lam, (-1,)))
    assert got == conditional_measure(pd1, "stable", lam).value


def test_fiber_measure_future_pinning(pd1, g1):
    alpha = make_morphism(g1, ["a"])
    z_match = make_morphism(g1, ["a", "b", "a"])
    z_miss = make_morphism(g1, ["b", "b", "a"])
    cyl = CylinderSet(alpha, (0,))
    assert fiber_measure(pd1, (0,), z_match, cyl) == pytest.approx(pd1.a["v"])
    assert fiber_measure(pd1, (0,), z_miss, cyl) == 0.0


def test_fiber_measure_with_offset_p(pd1, g1):
    # the box [0, 1] sits before p = 1, so the whole block is free:
    # mass = t^1 * t^-2 a * (number of length-1 completions matching z)
    z = make_morphism(g1, ["a", "a"])
    cyl = CylinderSet(make_morphism(g1, ["a"]), (0,))
    assert fiber_measure(pd1, (1,), z, cyl) == pytest.approx(1.0)


def test_fiber_measure_needs_deep_window(pd1, g1):
    z = make_morphism(g1, ["a"])
    with pytest.raises(OutOfBox):
        fiber_measure(pd1, (0,), z, CylinderSet(make_morphism(g1, ["a", "b", "a"]), (0,)))


def test_disintegration_identity(pd1, pd2, pd3, g1, g2, g3):
    for pd, sk in ((pd1, g1), (pd2, g2), (pd3, g3)):
        zero = dv.zero(sk.k)
        lams = [
            m
            for d in dv.box(zero, dv.scaled(2, sk.k))
            for m in enumerate_morphisms(sk, d)
        ]
        offsets = [zero, dv.scaled(-1, sk.k), dv.ones(sk.k), dv.scaled(-2, sk.k)]
        for p in (zero, dv.ones(sk.k)):
            for lam in lams[:40]:
                for off in offsets:
                    cyl = CylinderSet(lam, off)
                    depth = dv.join(dv.sub(dv.join(cyl.top, p), p), zero)
                    total = sum(
                        fiber_measure(pd, p, om, cyl) * base_measure(pd, p, om).value
                        for om in enumerate_morphisms(sk, depth)
                    )
                    assert total == pytest.approx(
                        parry_measure(pd, cyl).value, abs=TOL
                    )


def _fiber_measure_by_point(pd, p, z, cyl):
    """The fiber mass over z as a sum of its own: every extension of lam
    across the box whose part from p on reads z adds t^lo a(r(ext))."""
    sk = z.skeleton
    lam, lo, hi = cyl.lam, dv.meet(cyl.offset, p), dv.join(cyl.top, p)
    need = dv.sub(hi, p)
    z_part, _ = factorize(z, need, dv.sub(z.degree, need))
    total = 0.0
    for pre in enumerate_morphisms(sk, dv.sub(cyl.offset, lo)):
        for post in enumerate_morphisms(sk, dv.sub(hi, cyl.top)):
            if pre.source != lam.range or post.range != lam.source:
                continue
            ext = compose(compose(pre, lam), post)
            if factorize(ext, dv.sub(p, lo), need)[1] == z_part:
                total += pd.t_power(lo) * pd.a[ext.range]
    return total


@pytest.mark.parametrize("name", ["g2", "g3"])
def test_fiber_masses_hold_every_fiber_measure(name, fixture_graphs):
    sk = fixture_graphs[name]
    pd = perron_data(sk)
    zero, one = dv.zero(sk.k), dv.ones(sk.k)
    lams = [m for d in dv.box(zero, one) for m in enumerate_morphisms(sk, d)]
    for p in (zero, one):
        for lam in lams:
            for off in (zero, dv.scaled(-1, sk.k), one):
                cyl = CylinderSet(lam, off)
                need = dv.sub(dv.join(cyl.top, p), p)
                masses = fiber_masses(pd, p, cyl)
                assert all(z.degree == need for z in masses)
                for z in enumerate_morphisms(sk, need):
                    got = fiber_measure(pd, p, z, cyl)
                    assert got == masses.get(z, 0.0)
                    assert got == _fiber_measure_by_point(pd, p, z, cyl)
                # a deeper window is cut down to the depth the box needs
                for z in enumerate_morphisms(sk, dv.add(need, one))[:4]:
                    head, _ = factorize(z, need, one)
                    assert fiber_measure(pd, p, z, cyl) == masses.get(head, 0.0)


def test_disintegration_check_catches_a_dropped_fiber_mass(g2, monkeypatch):
    def dropped(pd, p, cyl):
        masses = fiber_masses(pd, p, cyl)
        del masses[next(iter(masses))]
        return masses

    cfg = checks.AnalysisConfig()
    assert checks.check_disintegration(checks.Suite(g2, cfg)).status == "pass"
    monkeypatch.setattr(checks, "fiber_masses", dropped)
    result = checks.check_disintegration(checks.Suite(g2, cfg))
    assert result.status == "fail"
    assert result.detail.startswith("disintegration off by")


# ---------------------------------------------------------------------------
# Haar weights
# ---------------------------------------------------------------------------


def test_haar_weight_p_zero_is_conditional(pd2, g2):
    for lam in enumerate_morphisms(g2, (2,)):
        assert haar_weight(pd2, (0,), lam).value == pytest.approx(
            conditional_measure(pd2, "stable", lam).value
        )


def test_haar_weight_g1_shifted_cylinder(pd1, g1):
    # t^1 * t^-2 * a(v): the p-shifted cylinder has total degree 2
    assert haar_weight(pd1, (1,), make_morphism(g1, ["a"])).value == pytest.approx(0.5)


def test_haar_weight_matches_trans_equation(pd3, g3):
    # t^p mu_s^(sigma^p x)(shifted cylinder) = mu_s^x(cylinder), extension
    # by every xi in Lambda^p
    for lam in enumerate_morphisms(g3, (1, 0)) + enumerate_morphisms(g3, (1, 1)):
        base = conditional_measure(pd3, "stable", lam).value
        for p in dv.box(dv.zero(2), dv.scaled(2, 2)):
            assert haar_weight(pd3, p, lam).value == pytest.approx(base, abs=TOL)
            for xi in enumerate_morphisms(g3, p):
                if xi.range != lam.source:
                    continue
                ext = conditional_measure(pd3, "stable", compose(lam, xi)).value
                assert pd3.t_power(p) * ext == pytest.approx(base, abs=TOL)


def test_haar_chain_composes(pd3, g3):
    # scaling by p and then by q along concrete path extensions agrees
    # with scaling by p + q in one step
    lam = make_morphism(g3, ["b1"])
    p, q = (1, 0), (0, 2)
    base = conditional_measure(pd3, "stable", lam).value
    for xi_p in enumerate_morphisms(g3, p):
        if xi_p.range != lam.source:
            continue
        mid = compose(lam, xi_p)
        step_p = pd3.t_power(p) * conditional_measure(pd3, "stable", mid).value
        assert step_p == pytest.approx(base, abs=TOL)
        for xi_q in enumerate_morphisms(g3, q):
            if xi_q.range != mid.source:
                continue
            full = compose(mid, xi_q)
            cond_full = conditional_measure(pd3, "stable", full).value
            two_steps = pd3.t_power(p) * pd3.t_power(q) * cond_full
            one_step = pd3.t_power(dv.add(p, q)) * cond_full
            assert two_steps == pytest.approx(one_step, abs=TOL)
            assert two_steps == pytest.approx(base, abs=TOL)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_vertex_indicator(pd1, g1):
    f = DiagonalFunction.indicator(vertex_cylinder(pd1, "v"))
    assert trace_eval(pd1, f) == pytest.approx(1.0)


def test_trace_zero(pd1):
    assert trace_eval(pd1, DiagonalFunction.zero()) == 0.0


def test_trace_cancellation(pd1, g1):
    f = DiagonalFunction(
        (
            (1.0, CylinderSet(make_morphism(g1, ["a"]), (0,))),
            (-1.0, CylinderSet(make_morphism(g1, ["b"]), (0,))),
        )
    )
    assert trace_eval(pd1, f) == pytest.approx(0.0, abs=1e-15)


def test_trace_linearity(pd2, g2):
    f = DiagonalFunction.indicator(CylinderSet(make_morphism(g2, ["uu"]), (0,)))
    g = DiagonalFunction.indicator(CylinderSet(make_morphism(g2, ["uv"]), (1,)))
    combo = f.scaled(2.5).plus(g.scaled(-0.5))
    assert trace_eval(pd2, combo) == pytest.approx(
        2.5 * trace_eval(pd2, f) - 0.5 * trace_eval(pd2, g)
    )


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4"])
def test_trace_scaling_check_catches_a_transport_without_its_t_power(
    name, fixture_graphs, monkeypatch
):
    # offsets move, coefficients keep their weights: tau(beta_n f) = tau(f)
    # where t^n tau(f) is due.  On g4, one edge per color, t = (1, 1) and
    # t^n = 1 for every n, so no scaling fault can show there
    def unscaled(pd, f, n):
        return DiagonalFunction(
            tuple((w, CylinderSet(cyl.lam, dv.sub(cyl.offset, n))) for w, cyl in f.terms)
        )

    sk, cfg = fixture_graphs[name], checks.AnalysisConfig()
    assert checks.check_trace_scaling(checks.Suite(sk, cfg)).status == "pass"
    monkeypatch.setattr(checks, "beta_transport", unscaled)
    result = checks.check_trace_scaling(checks.Suite(sk, cfg))
    if name == "g4":
        assert perron_data(sk).t == (1.0, 1.0)
        assert result.status == "pass"
    else:
        assert result.status == "fail"
        assert result.detail.startswith("trace scaling fails at n=")

def test_trace_scaling_under_transport(pd2, pd3, g2, g3):
    for pd, sk in ((pd2, g2), (pd3, g3)):
        lams = [
            m
            for d in dv.box(dv.zero(sk.k), dv.ones(sk.k))
            for m in enumerate_morphisms(sk, d)
        ]
        f = DiagonalFunction(
            tuple((0.5 + i, CylinderSet(lam, dv.zero(sk.k))) for i, lam in enumerate(lams[:3]))
        )
        base = trace_eval(pd, f)
        for n in dv.box(dv.scaled(-2, sk.k), dv.scaled(2, sk.k)):
            moved = beta_transport(pd, f, n)
            assert trace_eval(pd, moved) == pytest.approx(
                pd.t_power(n) * base, rel=1e-9
            )
            for (w, cyl), (w0, cyl0) in zip(moved.terms, f.terms):
                assert cyl.offset == dv.sub(cyl0.offset, n)
                assert w == pytest.approx(pd.t_power(n) * w0)
