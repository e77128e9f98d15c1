"""The invariant battery behind the CLI `suite` command.

Each check exercises one of the documented invariants on a given skeleton
and reports pass/fail with a counterexample payload.  `run_suite` builds
one `Suite` per run and passes it to every check; the Suite computes what
several checks read (the connectivity class, the Perron data, the count
ratios, the window lists and their shifts) once per run and keeps nothing
on the skeleton.  The relation checks compare the partitions that the
stable, unstable and asymptotic relations induce on the swept windows, as
lists of class tokens read through the predicates' own boxes
(``relations._stable_classes`` and ``_unstable_classes``): each relation
is defined once, and the rows compare its partitions with other readings
(pi, ``extract``, the opposite windows) and, on an exhaustive sweep, the
stable class sizes with exact path counts.  The battery reads no grid
itself.  The metric checks read rho once per pair of classes of equal
shifted windows.  Two measure rows compare the Parry and fiber
masses with ratios of exact path counts, which tend to them (Parry, Trans.
AMS 112, 1964).  Checks that need Perron data skip non-irreducible graphs;
the mixing check skips graphs that are not primitive within the search
bound.  Window sweeps beyond ``WINDOW_CAP`` fall back to seeded
exact-uniform sampling, and the seed is part of the report, so runs are
reproducible.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import zlib
from collections import Counter
from dataclasses import dataclass

from . import degrees as dv
from .core import (
    DEFAULT_ENUMERATION_CAP,
    Morphism,
    Skeleton,
    Vertex,
    _box_table,
    _critical_triples,
    _generator_matrix,
    _mat_mul,
    _step_vector,
    _swap,
    compose,
    count_morphisms,
    enumerate_morphisms,
    factorize,
    identity,
    make_morphism,
    opposite_graph,
    opposite_morphism,
    subblock,
    validate_skeleton,
)
from .degrees import Degree
from .dynamics import (
    MetricParams,
    Window,
    _block_tokens,
    all_windows,
    bracket,
    distance,
    local_product_enum,
    make_window,
    mixing_lag,
    restrict,
    sample_window,
    shift,
)
from .errors import KGraphError, RadiusExhausted
from .measure import (
    CylinderSet,
    DiagonalFunction,
    base_measure,
    beta_transport,
    conditional_measure,
    fiber_masses,
    haar_weight,
    parry_measure,
    trace_eval,
)
from .relations import (
    GroupoidElement,
    _stable_classes,
    _unstable_classes,
    restriction_map,
    semidirect_compose,
    window_op,
)
from .spectral import (
    ConnectivityClass,
    PerronData,
    af_multiplicities,
    classify_connectivity,
    perron_data,
    vertex_matrix,
)


#: exhaustive window sweeps switch to sampling above this many windows
WINDOW_CAP = 600
#: windows drawn by a sampled sweep of a 1-graph; halved per extra color
SAMPLE_SIZE = 48


@dataclass(frozen=True)
class AnalysisConfig:
    tol: float = 1e-12
    bound: int = 8
    radius: int = 2
    metric_r: float = 0.5
    seed: int = 0

    def bound_vec(self, k: int) -> Degree:
        return dv.scaled(self.bound, k)


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


class _Skip(Exception):
    """Raised by the Suite for a check that cannot run on this graph: the
    check reports `skip` with this message as its detail."""


class Suite:
    """One run of the battery on one skeleton, handed to every check.

    It draws the seeded rng of each check, and it holds what several checks
    read: the connectivity class, the Perron data, the count ratios of the
    measure rows and, per radius with at most ``WINDOW_CAP`` windows, the
    list of all windows and its shifts sigma^m.  Each is computed on first
    use; a KGraphError raised computing it is kept, and every check that
    reads it reports that error.  Nothing is kept on the skeleton.
    """

    def __init__(self, sk: Skeleton, cfg: AnalysisConfig):
        self.sk = sk
        self.cfg = cfg
        self._shared: dict = {}

    def _once(self, key, compute):
        if key not in self._shared:
            try:
                self._shared[key] = compute()
            except KGraphError as exc:
                self._shared[key] = exc
        value = self._shared[key]
        if isinstance(value, KGraphError):
            raise value
        return value

    def rng(self, name: str) -> random.Random:
        return random.Random(self.cfg.seed * 2654435761 + zlib.crc32(name.encode()))

    @property
    def connectivity(self) -> ConnectivityClass:
        bound = self.cfg.bound_vec(self.sk.k)
        return self._once("connectivity", lambda: classify_connectivity(self.sk, bound))

    @property
    def perron(self) -> PerronData:
        """The Perron data; the check skips a graph that is not irreducible."""
        if not self.connectivity.irreducible:
            raise _Skip("not irreducible")
        return self._once("perron", lambda: perron_data(self.sk, self.cfg.tol))

    def sweep(self, n: int) -> tuple[int, tuple[Window, ...] | None]:
        """(the number of radius-n windows, all of them if at most WINDOW_CAP)."""

        def compute():
            total = count_morphisms(self.sk, dv.scaled(2 * n, self.sk.k))
            return total, tuple(all_windows(self.sk, n)) if total <= WINDOW_CAP else None

        return self._once(("sweep", n), compute)

    def windows(self, n: int, name: str) -> tuple[Window, ...]:
        """The radius-n windows that check `name` sweeps: all of them, or
        above WINDOW_CAP a seeded exact-uniform sample of its own."""
        windows = self.sweep(n)[1]
        if windows is not None:
            return windows
        rng = self.rng(name)
        # higher rank makes every window operation wider; sample fewer, and
        # dedupe so pair sweeps see distinct windows
        wanted = max(12, SAMPLE_SIZE >> (self.sk.k - 1))
        return tuple(dict.fromkeys(sample_window(self.sk, n, rng) for _ in range(wanted)))

    def shifted(self, n: int, name: str, m: Degree) -> tuple[Window, ...]:
        """sigma^m of each radius-n window that check `name` sweeps: built
        once per run for the exhaustive sweep, per call for a sample.

        The list holds one object per distinct window: each shifted window
        is replaced by the first equal one met, the swept windows first, so
        sigma^0 is the sweep itself."""
        windows = self.windows(n, name)

        def compute() -> tuple[Window, ...]:
            seen = dict(zip(windows, windows))
            return tuple(seen.setdefault(v, v) for v in (shift(w, m) for w in windows))

        if self.sweep(n)[1] is None:
            return compute()
        return self._once(("shifted", n, m), compute)


def _check(name: str):
    """Make a battery check ``check(suite) -> CheckResult`` from a body that
    also takes its report name: the check reports under that name, also
    when the body raises a KGraphError or a skip."""

    def register(body):
        @functools.wraps(body)
        def check(suite: Suite) -> CheckResult:
            try:
                return body(suite, name)
            except _Skip as exc:
                return CheckResult(name, "skip", str(exc))
            except KGraphError as exc:
                return CheckResult(name, "fail", f"{type(exc).__name__}: {exc}")

        return check

    return register


def _morphisms_upto(sk: Skeleton, top: Degree, cap: int = 10**5) -> list[Morphism]:
    out: list[Morphism] = []
    for d in dv.box(dv.zero(sk.k), top):
        if count_morphisms(sk, d) + len(out) > cap:
            break
        out.extend(enumerate_morphisms(sk, d))
    return out


# ---------------------------------------------------------------------------
# core invariants
# ---------------------------------------------------------------------------


# The two word-level rows check compose and factorize on the critical pairs
# of the rewriting only.  A square swap of a descending adjacent pair lowers
# the color inversions of a word, so rewriting ends.  Swaps that do not
# overlap commute, and the only overlaps are the critical triples h*g*f of
# three descending colors, which validate_skeleton resolves both ways (the
# cube check).  By Newman's lemma (Ann. Math. 43, 1942) each path then has
# one normal form, hence associativity and, with bijective squares, unique
# factorisation (Kumjian-Pask, New York J. Math. 6, 2000).
# normal-form-confluence and window-consistency check that _normalize_word
# and _peel_head perform those swaps.


@_check("factorization-uniqueness")
def check_factorization_uniqueness(suite: Suite, name: str) -> CheckResult:
    """factorize undoes compose on every composable pair of edges of two
    distinct colors, in both color orders."""
    sk = suite.sk
    checked = 0
    for f in sk.edges:
        for c in range(sk.k):
            if c == f.color:
                continue
            for g in sk.edges_with_range(f.source, c):
                pair = make_morphism(sk, [f.id]), make_morphism(sk, [g.id])
                lam = compose(*pair)
                if factorize(lam, pair[0].degree, pair[1].degree) != pair:
                    return CheckResult(name, "fail", f"factorize disagrees on {lam!r}")
                checked += 1
    return CheckResult(name, "pass", f"{checked} pairs")


@_check("associativity")
def check_associativity(suite: Suite, name: str) -> CheckResult:
    """compose is associative on every critical triple h*g*f."""
    sk = suite.sk
    checked = 0
    for triple in _critical_triples(sk, range(sk.k)):
        h, g, f = (make_morphism(sk, [e.id]) for e in triple)
        if compose(compose(h, g), f) != compose(h, compose(g, f)):
            return CheckResult(name, "fail", f"({h!r}{g!r}){f!r} != {h!r}({g!r}{f!r})")
        checked += 1
    return CheckResult(name, "pass", f"{checked} triples")


def _random_walk_word(sk: Skeleton, length: int, rng: random.Random) -> list[str] | None:
    v = rng.choice(sk.vertices)
    word: list[str] = []
    for _ in range(length):
        options = [e for c in range(sk.k) for e in sk.edges_with_range(v, c)]
        if not options:
            return None
        e = rng.choice(options)
        word.append(e.id)
        v = e.source
    return word


@_check("normal-form-confluence")
def check_normal_form_confluence(suite: Suite, name: str) -> CheckResult:
    sk = suite.sk
    rng = suite.rng(name)
    colors = sk.color_of
    for _ in range(200):
        length = rng.randint(2, 6)
        word = _random_walk_word(sk, length, rng)
        if word is None:
            continue
        reference = make_morphism(sk, word)
        # random swap order: repeatedly pick any descending adjacent pair
        trial = list(word)
        while True:
            spots = [
                i
                for i in range(len(trial) - 1)
                if colors[trial[i]] > colors[trial[i + 1]]
            ]
            if not spots:
                break
            i = rng.choice(spots)
            trial[i], trial[i + 1] = _swap(sk, trial[i], trial[i + 1])
        if tuple(trial) != reference.word:
            return CheckResult(
                name, "fail", f"word {word} normalized to {trial} vs {reference.word}"
            )
    return CheckResult(name, "pass")


@_check("opposite-involution")
def check_opposite_involution(suite: Suite, name: str) -> CheckResult:
    sk = suite.sk
    # op(op(mu)) rewrites the reversed word through the opposite graph's
    # square table and back through the original's
    for mu in _morphisms_upto(sk, dv.scaled(2, sk.k)):
        if opposite_morphism(opposite_morphism(mu)) != mu:
            return CheckResult(name, "fail", f"op(op({mu!r})) != {mu!r}")
    op = opposite_graph(sk)
    if not validate_skeleton(op).ok:
        return CheckResult(name, "fail", "opposite skeleton is not valid")
    two = dv.scaled(2, sk.k)
    table = _box_table(sk, two)
    for p, entries in _box_table(op, two).items():
        if entries != tuple(zip(*table[p])):
            return CheckResult(name, "fail", f"|Lambda_op^{p}| is not the transpose")
    return CheckResult(name, "pass")


# ---------------------------------------------------------------------------
# spectral invariants
# ---------------------------------------------------------------------------


@_check("semigroup-law")
def check_semigroup_law(suite: Suite, name: str) -> CheckResult:
    """|Lambda^p| from two engines over p in [0, 6e]: binary powers of the
    generators (``vertex_matrix``) against one sparse generator step per
    degree (the box table).  Both build the ordered product
    M_0^(p_0) ... M_(k-1)^(p_(k-1)), so with commuting generators
    (generator-commutation) |Lambda^(p+q)| = |Lambda^p||Lambda^q| follows
    for every p, q >= 0 with p + q <= 6e; no pairwise product is formed."""
    sk = suite.sk
    for p, entries in _box_table(sk, dv.scaled(6, sk.k)).items():
        if vertex_matrix(sk, p).entries != entries:
            return CheckResult(name, "fail", f"binary powers and the box table differ at |L^{p}|")
    return CheckResult(name, "pass")


@_check("generator-commutation")
def check_generator_commutation(suite: Suite, name: str) -> CheckResult:
    sk = suite.sk
    for i in range(sk.k):
        for j in range(i + 1, sk.k):
            a, b = _generator_matrix(sk, i), _generator_matrix(sk, j)
            if _mat_mul(a, b) != _mat_mul(b, a):
                return CheckResult(name, "fail", f"generators {i} and {j} do not commute")
    return CheckResult(name, "pass")


@_check("eigen-equations")
def check_eigen_equations(suite: Suite, name: str) -> CheckResult:
    sk, cfg = suite.sk, suite.cfg
    pd = suite.perron
    tol = 10 * cfg.tol
    vs = sk.vertices
    a, b = [pd.a[v] for v in vs], [pd.b[v] for v in vs]
    for p, entries in _box_table(sk, dv.scaled(3, sk.k)).items():
        tp = pd.t_power(p)
        for v, col in zip(vs, zip(*entries)):
            left = sum(map(operator.mul, a, col))
            if abs(left - tp * pd.a[v]) > tol * max(1.0, tp):
                return CheckResult(name, "fail", f"left eigen fails at p={p}, v={v}")
        for u, row in zip(vs, entries):
            right = sum(map(operator.mul, row, b))
            if abs(right - tp * pd.b[u]) > tol * max(1.0, tp):
                return CheckResult(name, "fail", f"right eigen fails at p={p}, u={u}")
    return CheckResult(name, "pass")


@_check("perron-positivity")
def check_perron_positivity(suite: Suite, name: str) -> CheckResult:
    pd = suite.perron
    if all(t > 0 for t in pd.t) and all(x > 0 for x in pd.a.values()) and all(
        x > 0 for x in pd.b.values()
    ):
        return CheckResult(name, "pass")
    return CheckResult(name, "fail", f"nonpositive entry in t={pd.t}")


@_check("af-consistency")
def check_af_consistency(suite: Suite, name: str) -> CheckResult:
    sk = suite.sk
    two = dv.scaled(2, sk.k)
    table = _box_table(sk, two)
    for m in dv.box(dv.zero(sk.k), two):
        for n in dv.box(dv.zero(sk.k), two):
            if dv.is_zero(n):
                continue
            af = af_multiplicities(sk, m, n)
            if not af.consistent:
                return CheckResult(name, "fail", f"block dims break at m={m}, n={n}")
            if af.multiplicity.entries != table[n]:
                return CheckResult(name, "fail", f"multiplicity != |Lambda^{n}|")
    return CheckResult(name, "pass")


# ---------------------------------------------------------------------------
# measure invariants
# ---------------------------------------------------------------------------

_TOL_MEASURE = 1e-9
_TOL_MASS = 1e-12
#: the count ratios of the measure rows must settle within this many steps
RATIO_STEPS = 1024


@_check("measure-total-mass")
def check_total_mass(suite: Suite, name: str) -> CheckResult:
    sk = suite.sk
    pd = suite.perron
    total = sum(
        parry_measure(pd, CylinderSet(identity(sk, v), dv.zero(sk.k))).value
        for v in sk.vertices
    )
    if abs(total - 1.0) > _TOL_MASS:
        return CheckResult(name, "fail", f"sum over vertex cylinders is {total!r}")
    return CheckResult(name, "pass")


def _count_ratios(sk: Skeleton) -> tuple[int, dict | None]:
    """(N, per (d, r, s) class with d <= 2e the ratios u(r) v(s) / (u M^d v),
    u(r) / (u M^d)(s) and v(s) / (M^d v)(r) of u = 1^T (I + A)^N, v = (I + A)^N 1,
    A = sum_c M_c).  I + A is primitive for irreducible A, with A's Perron
    vectors a and b, and the M_c commute, so a M^d = t^d a and M^d b = t^d b:
    the ratios tend to t^-d a(r) b(s), t^-d a(r) / a(s) and t^-d b(s) / b(r)
    (Parry 1964).  N doubles until no first ratio moves by more than
    _TOL_MEASURE / 10; the dict is None if they still move at RATIO_STEPS."""
    table = _box_table(sk, dv.scaled(2, sk.k))
    op, vs = opposite_graph(sk), sk.vertices  # the M_c of op are the transposes
    u = v = [1] * len(vs)
    steps, before = 0, {}
    while steps < RATIO_STEPS:
        for _ in range(max(steps, 1)):
            u = [sum(x) for x in zip(u, *(_step_vector(op, c, u) for c in range(sk.k)))]
            v = [sum(x) for x in zip(v, *(_step_vector(sk, c, v) for c in range(sk.k)))]
        steps = max(2 * steps, 1)
        now = {}
        for d, rows in table.items():
            um = [sum(map(operator.mul, u, col)) for col in zip(*rows)]
            total = sum(map(operator.mul, um, v))
            for r, row in enumerate(rows):
                mv = sum(map(operator.mul, row, v))
                for s, count in enumerate(row):
                    if count:
                        now[d, vs[r], vs[s]] = (u[r] * v[s] / total, u[r] / um[s], v[s] / mv)
        if before and all(abs(x[0] - before[c][0]) <= _TOL_MEASURE / 10 for c, x in now.items()):
            return steps, now
        before = now
    return steps, None


def _measure_classes(suite: Suite) -> tuple[PerronData, list[tuple[Morphism, tuple]], str]:
    """The Perron data; the first path of each (d, r, s) class in the pool
    of degree <= 2e with the count ratios of its class, which a run computes
    once, or a skip if they still move at RATIO_STEPS; and the detail."""
    pd = suite.perron
    steps, ratios = suite._once("ratios", lambda: _count_ratios(suite.sk))
    if ratios is None:
        raise _Skip(f"count ratios still move after {steps} steps")
    classes: dict[tuple[Degree, Vertex, Vertex], Morphism] = {}
    for lam in _morphisms_upto(suite.sk, dv.scaled(2, suite.sk.k), cap=4000):
        classes.setdefault((lam.degree, lam.range, lam.source), lam)
    detail = f"{len(classes)} of {len(ratios)} classes, N = {steps}"
    return pd, [(lam, ratios[c]) for c, lam in classes.items()], detail


@_check("measure-expansion")
def check_expansion(suite: Suite, name: str) -> CheckResult:
    """mu(Z(lam)) is the limit of the two-sided count ratio of its class."""
    pd, classes, detail = _measure_classes(suite)
    for lam, (two, _, _) in classes:
        mu = parry_measure(pd, CylinderSet(lam, dv.zero(suite.sk.k))).value
        if abs(mu - two) > _TOL_MEASURE:
            return CheckResult(name, "fail", f"mu(Z({lam!r})) = {mu} vs count ratio {two}")
    return CheckResult(name, "pass", detail)


@_check("measure-product-decomposition")
def check_product_decomposition(suite: Suite, name: str) -> CheckResult:
    """mu(Z(v)) = (stable mass of Lambda^2e ending at v) x (unstable mass of
    Lambda^2e leaving v).  The pairwise product identity holds by algebra
    once compose is right, which factorization-uniqueness and associativity
    check."""
    sk = suite.sk
    pd = suite.perron
    two = dv.scaled(2, sk.k)
    total = count_morphisms(sk, two)
    if total > DEFAULT_ENUMERATION_CAP:
        return CheckResult(name, "skip", f"|Lambda^{two}| = {total} exceeds the enumeration cap")
    stable = dict.fromkeys(sk.vertices, 0.0)
    unstable = dict.fromkeys(sk.vertices, 0.0)
    for lam in enumerate_morphisms(sk, two, cap=DEFAULT_ENUMERATION_CAP):
        stable[lam.source] += conditional_measure(pd, "stable", lam).value
        unstable[lam.range] += conditional_measure(pd, "unstable", lam).value
    for v in sk.vertices:
        box_mass = stable[v] * unstable[v]
        expect = parry_measure(pd, CylinderSet(identity(sk, v), dv.zero(sk.k))).value
        if abs(box_mass - expect) > _TOL_MEASURE:
            return CheckResult(name, "fail", f"fiber masses at {v!r} sum to {box_mass}")
    return CheckResult(name, "pass")


@_check("measure-haar-scaling")
def check_haar_scaling(suite: Suite, name: str) -> CheckResult:
    """The stable mass of lam over a(s(lam)) and its unstable mass over
    b(r(lam)) are the limits of the one-sided count ratios of its class,
    and haar_weight(p, lam) is the stable mass for every p in [0, 2e]."""
    pd, classes, detail = _measure_classes(suite)
    for lam, (_, stable, unstable) in classes:
        mu_s = conditional_measure(pd, "stable", lam).value
        for p in dv.box(dv.zero(suite.sk.k), dv.scaled(2, suite.sk.k)):
            if abs(haar_weight(pd, p, lam).value - mu_s) > _TOL_MEASURE:
                return CheckResult(name, "fail", f"haar weight breaks at {lam!r}, p={p}")
        if abs(mu_s / pd.a[lam.source] - stable) > _TOL_MEASURE:
            return CheckResult(name, "fail", f"stable mass of {lam!r} vs count ratio {stable}")
        mu_u = conditional_measure(pd, "unstable", lam).value
        if abs(mu_u / pd.b[lam.range] - unstable) > _TOL_MEASURE:
            return CheckResult(name, "fail", f"unstable mass of {lam!r} vs count ratio {unstable}")
    return CheckResult(name, "pass", detail)


@_check("measure-trace-scaling")
def check_trace_scaling(suite: Suite, name: str) -> CheckResult:
    sk = suite.sk
    pd = suite.perron
    rng = suite.rng(name)
    pool = _morphisms_upto(sk, dv.scaled(2, sk.k), cap=2000)
    for _ in range(25):
        terms = tuple(
            (rng.uniform(-2, 2), CylinderSet(rng.choice(pool), tuple(rng.randint(-2, 2) for _ in range(sk.k))))
            for _ in range(rng.randint(1, 4))
        )
        f = DiagonalFunction(terms)
        base = trace_eval(pd, f)
        for n in dv.box(dv.scaled(-2, sk.k), dv.scaled(2, sk.k)):
            lhs = trace_eval(pd, beta_transport(pd, f, n))
            rhs = pd.t_power(n) * base
            if abs(lhs - rhs) > _TOL_MEASURE * max(1.0, abs(rhs)):
                return CheckResult(name, "fail", f"trace scaling fails at n={n}")
    return CheckResult(name, "pass")


@_check("measure-disintegration")
def check_disintegration(suite: Suite, name: str) -> CheckResult:
    sk = suite.sk
    pd = suite.perron
    lams = _morphisms_upto(sk, dv.scaled(2, sk.k), cap=400)
    if len(lams) > 18:
        lams = lams[:: len(lams) // 18 + 1]
    offsets = [dv.zero(sk.k), dv.scaled(-1, sk.k), dv.ones(sk.k)]
    for p in (dv.zero(sk.k), dv.ones(sk.k)):
        for lam in lams:
            for off in offsets:
                cyl = CylinderSet(lam, off)
                need = dv.join(dv.sub(dv.join(cyl.top, p), p), dv.zero(sk.k))
                lo = dv.meet(off, p)
                hi = dv.join(cyl.top, p)
                cells = count_morphisms(sk, need)
                per_cell = count_morphisms(sk, dv.sub(off, lo)) * count_morphisms(
                    sk, dv.sub(hi, cyl.top)
                )
                if cells * per_cell > 4000:
                    continue
                mu = parry_measure(pd, cyl).value
                masses = fiber_masses(pd, p, cyl)
                total = sum(
                    masses.get(om, 0.0) * base_measure(pd, p, om).value
                    for om in enumerate_morphisms(sk, need)
                )
                if abs(total - mu) > _TOL_MEASURE:
                    return CheckResult(
                        name,
                        "fail",
                        f"disintegration off by {total - mu} at {lam!r}, n={off}, p={p}",
                    )
    return CheckResult(name, "pass")


# ---------------------------------------------------------------------------
# dynamics invariants
# ---------------------------------------------------------------------------


@_check("window-consistency")
def check_window_consistency(suite: Suite, name: str) -> CheckResult:
    sk, cfg = suite.sk, suite.cfg
    n = cfg.radius
    k = sk.k
    ne = dv.scaled(n, k)
    halves = [(dv.neg(ne), dv.zero(k)), (dv.zero(k), ne)]
    boxes = halves + [(dv.neg(ne), ne)]
    # subblock is pure: call it once per distinct (outer, lo, mid).  The box
    # is part of the key, since the past and the future box can read the
    # same outer morphism, whose subblocks at mid then differ.  Only the
    # halves repeat (the windows are distinct), so only they are kept.
    inners: dict[tuple[Morphism, Degree, Degree], Morphism] = {}
    for w in suite.windows(n, name)[:80]:
        # the future and the whole box share their tails x(mid, Ne)
        tails: dict[tuple[Degree, Degree], Morphism] = {}
        for lo, hi in boxes:
            outer = w.extract(lo, hi)
            for mid in dv.box(lo, hi):
                inner = inners.get((outer, lo, mid))
                if inner is None:
                    inner = subblock(outer, dv.sub(mid, lo), dv.sub(hi, lo))
                    if (lo, hi) in halves:
                        inners[(outer, lo, mid)] = inner
                tail = tails.get((mid, hi))
                if tail is None:
                    tail = tails[(mid, hi)] = w.extract(mid, hi)
                if inner != tail:
                    return CheckResult(name, "fail", f"nested extraction differs in {w!r}")
    return CheckResult(name, "pass")


@_check("shift-semigroup")
def check_shift_semigroup(suite: Suite, name: str) -> CheckResult:
    sk, cfg = suite.sk, suite.cfg
    n = cfg.radius
    k = sk.k
    one = dv.ones(k)
    for w in suite.windows(n + 1, name):
        # sigma^{a+b} w and its restriction to radius N - |a| - |b| repeat
        # over the (a, b) with one sum: form each once
        summed: dict[Degree, Window] = {}
        cut: dict[tuple[Degree, int], Window] = {}
        for a in dv.box(dv.neg(one), one):
            wa = shift(w, a)
            if dv.is_zero(a) and wa != w:
                return CheckResult(name, "fail", "shift by 0 is not the identity")
            for b in dv.box(dv.neg(one), one):
                if dv.norm_max(b) > wa.N - 1:
                    continue
                lhs = shift(wa, b)
                ab = dv.add(a, b)
                rhs = cut.get((ab, lhs.N))
                if rhs is None:
                    if ab not in summed:
                        summed[ab] = shift(w, ab)
                    rhs = cut[(ab, lhs.N)] = restrict(summed[ab], lhs.N)
                if rhs != lhs:
                    return CheckResult(name, "fail", f"sigma^{a} then sigma^{b} differs")
    return CheckResult(name, "pass")


@_check("expansiveness")
def check_expansiveness(suite: Suite, name: str) -> CheckResult:
    sk, cfg = suite.sk, suite.cfg
    n = cfg.radius
    params = MetricParams(cfg.metric_r)
    windows = suite.windows(n, name)
    # rho is an ultrametric, so "closer than r" is an equivalence relation.
    # A block holds the windows that no shift so far has separated; a shift
    # splits it into the connected components of "closer than r" on the
    # shifted classes in it, reading rho once per pair of distinct classes
    blocks = [list(range(len(windows)))] if len(windows) > 1 else []
    for m in dv.box(dv.scaled(-(n - 1), sk.k), dv.scaled(n - 1, sk.k)):
        if not blocks:
            break
        tokens, rho = _class_distances(suite.shifted(n, name, m), params)
        split = []
        for block in blocks:
            comp = {tokens[i]: {tokens[i]} for i in block}
            for a, b in itertools.combinations(comp, 2):
                if rho(a, b) < params.r and comp[a] is not comp[b]:
                    comp[a] |= comp[b]
                    for c in comp[b]:
                        comp[c] = comp[a]
            parts: dict[int, list[int]] = {}
            for i in block:
                parts.setdefault(id(comp[tokens[i]]), []).append(i)
            split += [part for part in parts.values() if len(part) > 1]
        blocks = split
    if blocks:
        i, j = min(blocks)[:2]
        return CheckResult(
            name, "fail", f"{windows[i]!r} and {windows[j]!r} are never separated"
        )
    return CheckResult(name, "pass", f"{len(windows)} windows")


@_check("contraction-on-fibers")
def check_contraction(suite: Suite, name: str) -> CheckResult:
    sk, cfg = suite.sk, suite.cfg
    n = cfg.radius
    params = MetricParams(cfg.metric_r)
    windows = suite.windows(n, name)
    half = sk.k * n
    # a half is fixed by its word, the key slice
    by_future: dict[tuple[str, ...], list[int]] = {}
    by_past: dict[tuple[str, ...], list[int]] = {}
    for i, w in enumerate(windows):
        by_future.setdefault(w.key[half:], []).append(i)
        by_past.setdefault(w.key[:half], []).append(i)
    for grouping, sign in ((by_future, 1), (by_past, -1)):
        # moved[j]: the class tokens of sigma^{sign j e} of each window, and
        # rho between their classes
        moved = {
            j: _class_distances(suite.shifted(n, name, dv.scaled(sign * j, sk.k)), params)
            for j in range(1, n)
        }
        for group in grouping.values():
            for pos, i in enumerate(group):
                for h in group[pos + 1 :]:
                    y, z = windows[i], windows[h]
                    rho0 = distance(y, z, params).rho
                    for j, (tokens, rho) in moved.items():
                        if rho(tokens[i], tokens[h]) > params.r**j * rho0 + 1e-15:
                            return CheckResult(
                                name, "fail", f"contraction fails at j={j} for {y!r},{z!r}"
                            )
    return CheckResult(name, "pass")


@_check("bracket-axioms")
def check_bracket_axioms(suite: Suite, name: str) -> CheckResult:
    sk, cfg = suite.sk, suite.cfg
    n = cfg.radius
    k = sk.k
    half = k * n
    windows = suite.windows(n, name)
    by_origin: dict[Vertex, list[int]] = {}
    for i, w in enumerate(windows):
        by_origin.setdefault(w.origin, []).append(i)
    # [x, y] reads only (x.past, y.future) of windows through one origin, so
    # one bracket per (past, future) class, against the window glued by
    # compose, carries the content of every pair: both halves and both
    # associativity identities follow, and [x, x] = x with
    # bracket-uniqueness.  The body is compared too: it reads the grid the
    # bracket fills from its key.  A half is fixed by its word, the key slice.
    for group in by_origin.values():
        pasts: dict[tuple[str, ...], Window] = {}
        futures: dict[tuple[str, ...], Window] = {}
        for i in group:
            pasts.setdefault(windows[i].key[:half], windows[i])
            futures.setdefault(windows[i].key[half:], windows[i])
        for x in pasts.values():
            for y in futures.values():
                z, glued = bracket(x, y), make_window(sk, compose(x.past, y.future), n)
                if z != glued or z.body != glued.body:
                    return CheckResult(name, "fail", f"[{x!r},{y!r}] is not the glued window")
    # shift commutation, gated on agreement over the translation strip
    # (the two sides read different paths inside the strip otherwise).
    # [sx, sy] reads only (sx.past, sy.future) and sigma^m [x, y] only
    # (x.past, y.future), so within one strip class a gated pair is fixed
    # by the signatures (past, moved past) of x and (future, moved future)
    # of y: only the distinct ones are paired, and each side is evaluated
    # once per class.  [x, y] itself is glued once per class, for every m.
    one = dv.ones(k)
    shifts = {
        m: suite.shifted(n, name, m) for m in dv.box(dv.neg(one), one) if not dv.is_zero(m)
    }
    for group in by_origin.values():
        glued: dict[tuple, Window] = {}
        for m, moved in shifts.items():
            cut = k * moved[0].N
            lo, hi = dv.meet(m, dv.zero(k)), dv.join(m, dv.zero(k))
            strips: dict[int, tuple[dict, dict]] = {}
            for i, s in zip(group, _block_tokens([windows[i] for i in group], lo, hi)):
                w, v = windows[i], moved[i]
                pasts, futures = strips.setdefault(s, ({}, {}))
                pasts.setdefault((w.key[:half], v.key[:cut]), i)
                futures.setdefault((w.key[half:], v.key[cut:]), i)
            lhs: dict[tuple, Window] = {}
            rhs: dict[tuple, Window] = {}
            for pasts, futures in strips.values():
                for (p, mp), i in pasts.items():
                    for (f, mf), j in futures.items():
                        if (mp, mf) not in lhs:
                            lhs[mp, mf] = bracket(moved[i], moved[j])
                        if (p, f) not in rhs:
                            if (p, f) not in glued:
                                glued[p, f] = bracket(windows[i], windows[j])
                            rhs[p, f] = shift(glued[p, f], m)
                        if lhs[mp, mf] != rhs[p, f]:
                            return CheckResult(
                                name, "fail", f"sigma^{m} does not commute with bracket"
                            )
    return CheckResult(name, "pass")


@_check("bracket-uniqueness")
def check_bracket_uniqueness(suite: Suite, name: str) -> CheckResult:
    sk, n = suite.sk, suite.cfg.radius
    total, windows = suite.sweep(n)
    if windows is None:
        return CheckResult(name, "skip", f"{total} windows exceed the sweep cap")
    seen: dict[tuple[Morphism, Morphism], int] = {}
    for w in windows:
        key = (w.past, w.future)
        seen[key] = seen.get(key, 0) + 1
    if any(c != 1 for c in seen.values()):
        return CheckResult(name, "fail", "two windows share past and future")
    for v in sk.vertices:
        lp = local_product_enum(sk, v, n)
        if not lp.check:
            return CheckResult(name, "fail", f"|E||F| != #windows at {v!r}")
    return CheckResult(name, "pass")


@_check("mixing-lag")
def check_mixing_lag(suite: Suite, name: str) -> CheckResult:
    sk = suite.sk
    cc = suite.connectivity
    if not cc.primitive:
        return CheckResult(name, "skip", "not primitive within the search bound")
    rng = suite.rng(name)
    pool = _morphisms_upto(sk, dv.scaled(2, sk.k), cap=2000)
    pool = [m for m in pool if not m.is_identity] or pool
    for _ in range(20):
        u = CylinderSet(rng.choice(pool), tuple(rng.randint(-2, 2) for _ in range(sk.k)))
        v = CylinderSet(rng.choice(pool), tuple(rng.randint(-2, 2) for _ in range(sk.k)))
        lag = mixing_lag(sk, u, v, cc)
        if not lag.verified:
            return CheckResult(name, "fail", f"no connector for {u!r} vs {v!r}")
    return CheckResult(name, "pass")


# ---------------------------------------------------------------------------
# relations invariants
# ---------------------------------------------------------------------------


def _tokens(windows: list[Window], extractor) -> list[int]:
    """Intern extractor(w) per window; equal tokens iff equal values."""
    intern: dict = {}
    return [intern.setdefault(extractor(w), len(intern)) for w in windows]


def _class_distances(windows: list[Window], params: MetricParams):
    """Intern the windows, and ``rho(a, b)`` between the classes with tokens
    a and b: equal windows are at distance 0, and ``distance`` runs once per
    unordered pair of distinct classes, on the first read."""
    tokens = _tokens(windows, lambda w: w)
    first = list(dict.fromkeys(windows))  # the first window of each class
    memo: dict[tuple[int, int], float] = {}

    def rho(a: int, b: int) -> float:
        if a == b:
            return 0.0
        a, b = min(a, b), max(a, b)
        if (a, b) not in memo:
            memo[a, b] = distance(first[a], first[b], params).rho
        return memo[a, b]

    return tokens, rho


# A relation on the swept windows is an equivalence relation, held as the
# partition its class tokens induce: i ~ j iff tok[i] == tok[j].  The three
# tests below count distinct tokens and token pairs, in O(W) for W windows.


def _refines(a: list, b: list) -> bool:
    """a[i] == a[j] implies b[i] == b[j]: each a-class lies in one b-class."""
    return len(set(zip(a, b))) == len(set(a))


def _same(a: list, b: list) -> bool:
    """a[i] == a[j] exactly when b[i] == b[j]."""
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


def _meet(a: list, b: list, c: list) -> bool:
    """c[i] == c[j] exactly when a[i] == a[j] and b[i] == b[j]."""
    return _same(list(zip(a, b)), c)


@_check("stable-nesting")
def check_stable_nesting(suite: Suite, name: str) -> CheckResult:
    sk, cfg = suite.sk, suite.cfg
    k = sk.k
    one = dv.ones(k)
    windows = suite.windows(cfg.radius, name)
    ne = dv.scaled(cfg.radius, k)
    eq = {m: _stable_classes(windows, m) for m in dv.box(dv.neg(ne), ne)}
    for m in dv.box(dv.neg(one), one):
        for m2 in dv.box(m, ne):
            if not _refines(eq[m], eq[m2]):
                return CheckResult(name, "fail", f"stable at {m} but not at {m2}")
    if suite.sweep(cfg.radius)[1] is not None:
        # every window: the class of nu = x(m, Ne) holds one window per path
        # of degree Ne + m with source r(nu), (1^T M^(Ne+m))_r(nu) of them
        table = _box_table(sk, dv.scaled(2 * cfg.radius, k))
        for m, tok in eq.items():
            ending = [sum(row) for row in table[dv.sub(ne, m)]]  # nu per range
            sizes = [sum(col) for col in zip(*table[dv.add(ne, m)])]
            want = Counter()
            for count, size in zip(ending, sizes):
                if count and size:
                    want[size] += count
            if Counter(Counter(tok).values()) != want:
                return CheckResult(name, "fail", f"stable class sizes at {m} break the path counts")
    return CheckResult(name, "pass", f"{len(windows)} windows")


@_check("relation-shift-conjugation")
def check_shift_conjugation(suite: Suite, name: str) -> CheckResult:
    """(x, y) in G_{s,m+n} iff (sigma^m x, sigma^m y) in G_{s,n}.

    The shifted window reaches only to m + N'e, so at window scale
    membership on the left implies membership on the right for every m,
    and the two agree exactly when the boxes align, i.e. for diagonal
    m = je with j >= 0.
    """
    sk, cfg = suite.sk, suite.cfg
    k = sk.k
    one = dv.ones(k)
    windows = suite.windows(cfg.radius, name)
    ne = dv.scaled(cfg.radius, k)
    tail = {m: _stable_classes(windows, m) for m in dv.box(dv.neg(ne), ne)}
    for m in dv.box(dv.neg(one), one):
        if dv.norm_max(m) > cfg.radius - 1:
            continue
        shifted = suite.shifted(cfg.radius, name, m)
        aligned = m == dv.scaled(m[0], k) and m[0] >= 0
        inner = dv.scaled(shifted[0].N, k)
        for nn in dv.box(dv.neg(inner), inner):
            lhs = tail[dv.add(m, nn)]
            rhs = _stable_classes(shifted, nn)
            if not _refines(lhs, rhs):
                return CheckResult(name, "fail", f"G_(s,{m}+{nn}) does not map into G_(s,{nn})")
            if aligned and not _same(lhs, rhs):
                return CheckResult(name, "fail", f"G_(s,{m}+{nn}) mismatch under sigma^{m}")
    return CheckResult(name, "pass")


@_check("relation-fibered-product")
def check_fibered_product(suite: Suite, name: str) -> CheckResult:
    """stable at m iff pi(sigma^m x) = pi(sigma^m y); the boxes align for
    diagonal m = je, j >= 0, and the forward implication holds always."""
    sk, cfg = suite.sk, suite.cfg
    k = sk.k
    one = dv.ones(k)
    windows = suite.windows(cfg.radius, name)
    for m in dv.box(dv.neg(one), one):
        if dv.norm_max(m) > cfg.radius - 1:
            continue
        lhs = _stable_classes(windows, m)
        rhs = _tokens(suite.shifted(cfg.radius, name, m), restriction_map)
        if not _refines(lhs, rhs):
            return CheckResult(name, "fail", f"stable at {m} but pi differs")
        if m == dv.scaled(m[0], k) and m[0] >= 0 and not _same(lhs, rhs):
            return CheckResult(name, "fail", f"pi(sigma^{m}) characterization fails")
    return CheckResult(name, "pass")


@_check("asymptotic-meet")
def check_asymptotic_meet(suite: Suite, name: str) -> CheckResult:
    sk, cfg = suite.sk, suite.cfg
    k = sk.k
    windows = suite.windows(cfg.radius, name)
    for m in dv.box(dv.zero(k), dv.ones(k)):
        asym = _tokens(
            windows,
            lambda w: (
                w.extract(m, dv.scaled(w.N, k)),
                w.extract(dv.scaled(-w.N, k), dv.neg(m)),
            ),
        )
        stable, unstable = _stable_classes(windows, m), _unstable_classes(windows, dv.neg(m))
        if not _meet(stable, unstable, asym):
            return CheckResult(name, "fail", f"asymptotic != stable and unstable at {m}")
    return CheckResult(name, "pass")


@_check("relation-opposite-swap")
def check_opposite_swap(suite: Suite, name: str) -> CheckResult:
    sk, cfg = suite.sk, suite.cfg
    k = sk.k
    one = dv.ones(k)
    windows = suite.windows(cfg.radius, name)
    ops = [window_op(w) for w in windows]
    for w, o in zip(windows, ops):
        if window_op(o) != w:
            return CheckResult(name, "fail", f"op involution breaks on {w!r}")
    for m in dv.box(dv.neg(one), one):
        if not _same(_unstable_classes(windows, m), _stable_classes(ops, dv.neg(m))):
            return CheckResult(name, "fail", f"stable/unstable swap fails at m={m}")
    return CheckResult(name, "pass")


@_check("semidirect-laws")
def check_semidirect_laws(suite: Suite, name: str) -> CheckResult:
    k, big = suite.sk.k, suite.cfg.radius + 2
    by_origin: dict[str, list[Window]] = {}
    for w in suite.windows(big, name):
        by_origin.setdefault(w.origin, []).append(w)
    checked = 0
    corner = dv.scaled(big, k)
    for group in by_origin.values():
        ends = [w.extract(corner, corner) for w in group]
        for x, end in zip(group[:6], ends):
            mates = [z for z, e in zip(group, ends) if e == end]
            for z in mates[:6]:
                unit = GroupoidElement((x, x), dv.zero(k))
                g = GroupoidElement((x, z), dv.ones(k))
                out = semidirect_compose(unit, g)
                if out.n != g.n or out.pair[1] != restrict(z, out.pair[1].N):
                    return CheckResult(name, "fail", "unit law fails")
                # associativity over shifts n = e, m = -e
                try:
                    g1 = GroupoidElement((x, x), dv.ones(k))
                    mid = shift(x, dv.ones(k))
                    g2 = GroupoidElement((mid, mid), dv.neg(dv.ones(k)))
                    g3 = GroupoidElement((x, z), dv.zero(k))
                    lhs = semidirect_compose(semidirect_compose(g1, g2), g3)
                    rhs = semidirect_compose(g1, semidirect_compose(g2, g3))
                except RadiusExhausted:
                    continue
                if lhs.n != rhs.n:
                    return CheckResult(name, "fail", "associativity: shift components differ")
                r = min(lhs.pair[0].N, rhs.pair[0].N)
                if (restrict(lhs.pair[0], r), restrict(lhs.pair[1], r)) != (
                    restrict(rhs.pair[0], r),
                    restrict(rhs.pair[1], r),
                ):
                    return CheckResult(name, "fail", "associativity: windows differ")
                checked += 1
    return CheckResult(name, "pass", f"{checked} triples")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

ALL_CHECKS = (
    check_factorization_uniqueness,
    check_associativity,
    check_normal_form_confluence,
    check_opposite_involution,
    check_semigroup_law,
    check_generator_commutation,
    check_eigen_equations,
    check_perron_positivity,
    check_af_consistency,
    check_total_mass,
    check_expansion,
    check_product_decomposition,
    check_haar_scaling,
    check_trace_scaling,
    check_disintegration,
    check_window_consistency,
    check_shift_semigroup,
    check_expansiveness,
    check_contraction,
    check_bracket_axioms,
    check_bracket_uniqueness,
    check_mixing_lag,
    check_stable_nesting,
    check_shift_conjugation,
    check_fibered_product,
    check_asymptotic_meet,
    check_opposite_swap,
    check_semidirect_laws,
)


def run_suite(sk: Skeleton, cfg: AnalysisConfig) -> list[CheckResult]:
    """Run the whole battery; validation problems short-circuit."""
    report = validate_skeleton(sk)
    if not report.ok:
        return [
            CheckResult("skeleton-valid", "fail", "; ".join(v.message for v in report.violations))
        ]
    suite = Suite(sk, cfg)
    return [CheckResult("skeleton-valid", "pass")] + [fn(suite) for fn in ALL_CHECKS]
