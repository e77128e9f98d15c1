"""Parry measure on the two-sided path space, with its fiber decomposition.

All evaluators are closed formulas in the Perron data (t, a, b):

* cylinder:            mu(Z(lam, n))        = t^-d(lam) a(r(lam)) b(s(lam))
* stable fiber:        mu_s(Z^-(lam, x))    = t^-d(lam) a(r(lam))
* unstable fiber:      mu_u(Z^+(lam, x))    = t^-d(lam) b(s(lam))
* base measure:        nu_{s,p}(Z(nu))      = t^-(p + d(nu)) b(s(nu))

The suite checks the cylinder and fiber formulas against ratios of exact
path counts, which tend to them (Parry, Trans. AMS 112, 1964; see
``checks._count_ratios``), and the base-measure formula, fixed by the
disintegration identity integral(h d mu) = integral(mu_{s,p}(h) d nu_{s,p}),
against partitions of the one-sided path space.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import degrees as dv
from .core import Morphism, _split, compose, enumerate_morphisms, identity
from .degrees import Degree
from .errors import DegreeMismatch, OutOfBox
from .spectral import PerronData


@dataclass(frozen=True)
class CylinderSet:
    """Z(lam, n): two-sided paths reading lam on the box [n, n + d(lam)]."""

    lam: Morphism
    offset: Degree

    def __post_init__(self) -> None:
        if len(self.offset) != self.lam.skeleton.k:
            raise DegreeMismatch("offset has the wrong rank")

    @property
    def top(self) -> Degree:
        return dv.add(self.offset, self.lam.degree)


@dataclass(frozen=True, slots=True)
class MeasureValue:
    """A measure evaluation together with the formula that produced it.

    ``value == t^t_exponent * a_value * b_value`` with absent factors
    read as 1; tests reconstruct the value from the trace.
    """

    value: float
    t_exponent: Degree
    a_vertex: str | None = None
    a_value: float | None = None
    b_vertex: str | None = None
    b_value: float | None = None

    def reconstruct(self, pd: PerronData) -> float:
        out = pd.t_power(self.t_exponent)
        if self.a_value is not None:
            out *= self.a_value
        if self.b_value is not None:
            out *= self.b_value
        return out


_new_value = object.__new__
_set_value = MeasureValue.value.__set__
_set_t_exponent = MeasureValue.t_exponent.__set__
_set_a_vertex = MeasureValue.a_vertex.__set__
_set_a_value = MeasureValue.a_value.__set__
_set_b_vertex = MeasureValue.b_vertex.__set__
_set_b_value = MeasureValue.b_value.__set__


def _measure_value(
    value: float,
    exp: Degree,
    a_vertex: str | None,
    a_value: float | None,
    b_vertex: str | None,
    b_value: float | None,
) -> MeasureValue:
    """The MeasureValue with these fields, filled slot by slot: the same
    object ``MeasureValue(...)`` builds, without its frozen-dataclass
    ``__init__``."""
    m = _new_value(MeasureValue)
    _set_value(m, value)
    _set_t_exponent(m, exp)
    _set_a_vertex(m, a_vertex)
    _set_a_value(m, a_value)
    _set_b_vertex(m, b_vertex)
    _set_b_value(m, b_value)
    return m


def parry_measure(pd: PerronData, c: CylinderSet) -> MeasureValue:
    """mu(Z(lam, n)); the offset never enters (shift invariance)."""
    pd.require_same_graph(c.lam)
    lam = c.lam
    exp = dv.neg(lam.degree)
    av, bv = pd.a[lam.range], pd.b[lam.source]
    return _measure_value(pd.t_power(exp) * av * bv, exp, lam.range, av, lam.source, bv)


def conditional_measure(pd: PerronData, side: str, lam: Morphism) -> MeasureValue:
    """Stable (past) or unstable (future) fiber mass of the cylinder of lam.

    Stable reads lam ending at the anchor (s(lam) = x(0)); unstable reads
    lam leaving the anchor (r(lam) = x(0)).  The value depends on lam only.
    """
    pd.require_same_graph(lam)
    exp = dv.neg(lam.degree)
    if side == "stable":
        av = pd.a[lam.range]
        return _measure_value(pd.t_power(exp) * av, exp, lam.range, av, None, None)
    if side == "unstable":
        bv = pd.b[lam.source]
        return _measure_value(pd.t_power(exp) * bv, exp, None, None, lam.source, bv)
    raise ValueError(f"side must be 'stable' or 'unstable', got {side!r}")


def base_measure(pd: PerronData, p: Degree, nu: Morphism) -> MeasureValue:
    """nu_{s,p}(Z(nu)) = t^-(p + d(nu)) b(s(nu)) on the one-sided path space."""
    pd.require_same_graph(nu)
    p = dv.as_nonneg_degree(p, nu.skeleton.k)
    exp = dv.neg(dv.add(p, nu.degree))
    bv = pd.b[nu.source]
    return _measure_value(pd.t_power(exp) * bv, exp, None, None, nu.source, bv)


def haar_weight(pd: PerronData, p: Degree, lam: Morphism) -> MeasureValue:
    """mu_{s,p}-mass of the cylinder of lam: t^p times the stable mass of the
    p-shifted cylinder, whose degree grows to d(lam) + p.  The net value is
    t^-d(lam) a(r(lam)), which is exactly the compatibility that lets the
    fiber measures patch across p."""
    pd.require_same_graph(lam)
    p = dv.as_nonneg_degree(p, lam.skeleton.k)
    shifted_exp = dv.neg(dv.add(lam.degree, p))
    av = pd.a[lam.range]
    value = pd.t_power(p) * pd.t_power(shifted_exp) * av
    return _measure_value(value, dv.neg(lam.degree), lam.range, av, None, None)


def fiber_masses(pd: PerronData, p: Degree, cyl: CylinderSet) -> dict[Morphism, float]:
    """mu_{s,p}^z(Z(lam, n)) for every z at once, keyed by the future
    x(p, join(n + d(lam), p)) that z must read.

    One pass over the extensions of lam across the box [meet(n, p),
    join(n + d(lam), p)]: each adds t^meet(n, p) a(r(ext)) to the mass of
    its future from p on.  A future that no extension reads is absent and
    has mass 0.  ``fiber_measure`` is one lookup into this table.
    """
    pd.require_same_graph(cyl.lam)
    lam, n0 = cyl.lam, cyl.offset
    sk = lam.skeleton
    p = dv.as_nonneg_degree(p, sk.k)
    n1 = cyl.top
    box_lo = dv.meet(n0, p)
    box_hi = dv.join(n1, p)
    need = dv.sub(box_hi, p)
    posts = [m for m in enumerate_morphisms(sk, dv.sub(box_hi, n1)) if m.range == lam.source]
    skip = dv.sub(p, box_lo)
    weight = pd.t_power(box_lo)
    masses: dict[Morphism, float] = {}
    for pre in enumerate_morphisms(sk, dv.sub(n0, box_lo)):
        if pre.source != lam.range:
            continue
        left = compose(pre, lam)
        for post in posts:
            ext = compose(left, post)
            _, future = _split(ext, skip, need)
            masses[future] = masses.get(future, 0.0) + weight * pd.a[ext.range]
    return masses


def fiber_measure(pd: PerronData, p: Degree, z: Morphism, cyl: CylinderSet) -> float:
    """mu_{s,p}^z(Z(lam, n)) for z given as a one-sided window from z(0).

    The fiber over z consists of the paths that agree with z from p on;
    the part of the box before p is free and carries the stable measure,
    the part from p on must match z.  z must be deep enough to cover the
    box, i.e. d(z) >= join(n + d(lam), p) - p.
    """
    pd.require_same_graph(z)
    pd.require_same_graph(cyl.lam)
    p = dv.as_nonneg_degree(p, z.skeleton.k)
    need = dv.sub(dv.join(cyl.top, p), p)
    if not dv.leq(need, z.degree):
        raise OutOfBox(f"window of degree {z.degree} cannot cover depth {need}")
    z_part, _ = _split(z, need, dv.sub(z.degree, need))
    return fiber_masses(pd, p, cyl).get(z_part, 0.0)


# ---------------------------------------------------------------------------
# Diagonal functions and the trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalFunction:
    """Finite linear combination of cylinder indicators, read on the diagonal."""

    terms: tuple[tuple[float, CylinderSet], ...]

    @staticmethod
    def indicator(cyl: CylinderSet) -> "DiagonalFunction":
        return DiagonalFunction(((1.0, cyl),))

    @staticmethod
    def zero() -> "DiagonalFunction":
        return DiagonalFunction(())

    def scaled(self, c: float) -> "DiagonalFunction":
        return DiagonalFunction(tuple((c * w, cyl) for w, cyl in self.terms))

    def plus(self, other: "DiagonalFunction") -> "DiagonalFunction":
        return DiagonalFunction(self.terms + other.terms)


def trace_eval(pd: PerronData, f: DiagonalFunction) -> float:
    """tau_s(f) = integral of f on the diagonal; linear in the coefficients."""
    return sum(w * parry_measure(pd, cyl).value for w, cyl in f.terms)


def beta_transport(pd: PerronData, f: DiagonalFunction, n: Degree) -> DiagonalFunction:
    """The transport of f under the n-th shift automorphism: every cylinder
    offset moves by -n and every coefficient is scaled by t^n."""
    scale = pd.t_power(n)
    return DiagonalFunction(
        tuple(
            (w * scale, CylinderSet(cyl.lam, dv.sub(cyl.offset, n)))
            for w, cyl in f.terms
        )
    )


def vertex_cylinder(pd: PerronData, v: str) -> CylinderSet:
    """Z(v, 0), the cylinder of the identity at v."""
    return CylinderSet(identity(pd.skeleton, v), dv.zero(pd.skeleton.k))
