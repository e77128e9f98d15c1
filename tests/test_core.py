"""Skeleton validation, morphism arithmetic, and derived graphs."""

import gc
import itertools
import random
import re
from dataclasses import FrozenInstanceError

import pytest

from kgraphs import core
from kgraphs import degrees as dv
from kgraphs.cli import run
from kgraphs.core import (
    ColoredEdge,
    Morphism,
    Skeleton,
    SquareRule,
    _morphism,
    _normalize_word,
    combine,
    compose,
    count_morphisms,
    diagonal_restriction,
    enumerate_morphisms,
    factorize,
    identity,
    make_morphism,
    opposite_graph,
    opposite_morphism,
    sample_morphism,
    subblock,
    unit_grid,
    validate_skeleton,
)
from kgraphs.errors import (
    BoundExceeded,
    DegreeMismatch,
    MalformedSkeleton,
    NotComposable,
    RankMismatch,
    ValidationFailure,
)
from kgraphs.dynamics import all_windows
from kgraphs.spectral import vertex_matrix

from conftest import FIXTURES


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_g3_squares_form_a_bijection(g3):
    # independent check of the 4-entry table before trusting the validator
    blues = [e.id for e in g3.edges if e.color == 0]
    reds = [e.id for e in g3.edges if e.color == 1]
    domain = {(b, r) for b in blues for r in reds}
    table = {r.left: r.right for r in g3.squares if r.pair == (0, 1)}
    assert set(table) == domain
    assert len(set(table.values())) == len(domain)
    assert set(table.values()) == {(r, b) for r in reds for b in blues}
    assert validate_skeleton(g3).ok


def test_non_injective_square_is_flagged(g3):
    squares = tuple(
        SquareRule(r.pair, r.left, ("r1", "b1")) if r.left == ("b1", "r2") else r
        for r in g3.squares
    )
    broken = Skeleton(g3.k, g3.vertices, g3.edges, squares)
    report = validate_skeleton(broken)
    assert not report.ok
    assert "square-not-injective" in report.codes()


def test_k1_needs_no_squares(g1):
    assert validate_skeleton(g1).ok


def test_standing_assumption_violations_are_located():
    sk = Skeleton(
        1,
        ("u", "w"),
        (ColoredEdge("e", 0, "u", "u"), ColoredEdge("f", 0, "u", "w")),
        (),
    )
    report = validate_skeleton(sk)
    codes = report.codes()
    assert "standing-assumption-range" in codes
    subjects = {v.subjects for v in report.violations}
    assert ("w", "0") in subjects


def test_missing_square_entry_is_flagged(g4):
    sk = Skeleton(g4.k, g4.vertices, g4.edges, ())
    assert "square-missing" in validate_skeleton(sk).codes()


def test_structural_errors_raise_malformed():
    with pytest.raises(MalformedSkeleton):
        Skeleton(1, (), (), ())
    with pytest.raises(MalformedSkeleton):
        Skeleton(1, ("v", "v"), (), ())
    with pytest.raises(MalformedSkeleton):
        Skeleton(1, ("v",), (ColoredEdge("e", 0, "v", "missing"),), ())
    with pytest.raises(MalformedSkeleton):
        Skeleton(1, ("v",), (ColoredEdge("e", 3, "v", "v"),), ())
    loops = (ColoredEdge("f", 0, "v", "v"), ColoredEdge("g", 1, "v", "v"))
    square = SquareRule((0, 1), ("f", "g"), ("g", "f"))
    for squares, message in [
        ((SquareRule((1, 0), ("g", "f"), ("f", "g")),), "is not an ordered color pair"),
        ((SquareRule((0, 1), ("f", "h"), ("g", "f")),), "references unknown edge 'h'"),
        ((SquareRule((0, 1), ("g", "f"), ("f", "g")),), "has edges of the wrong colors"),
        ((square, square), r"defines \('f', 'g'\) twice"),
    ]:
        with pytest.raises(MalformedSkeleton, match=message):
            Skeleton(2, ("v",), loops, squares)


def _cube_graph(swap02, swap12):
    # one edge of colors 0 and 1, three of color 2; squares permute the h's
    edges = [
        ColoredEdge("f", 0, "v", "v"),
        ColoredEdge("g", 1, "v", "v"),
        ColoredEdge("h1", 2, "v", "v"),
        ColoredEdge("h2", 2, "v", "v"),
        ColoredEdge("h3", 2, "v", "v"),
    ]
    squares = [SquareRule((0, 1), ("f", "g"), ("g", "f"))]
    for i in (1, 2, 3):
        squares.append(SquareRule((0, 2), ("f", f"h{i}"), (f"h{swap02[i]}", "f")))
        squares.append(SquareRule((1, 2), ("g", f"h{i}"), (f"h{swap12[i]}", "g")))
    return Skeleton(3, ("v",), tuple(edges), tuple(squares))


def test_cube_consistency_flags_noncommuting_resolutions():
    # identity permutations commute: valid
    ident = {1: 1, 2: 2, 3: 3}
    assert validate_skeleton(_cube_graph(ident, ident)).ok
    # (h1 h2) and (h2 h3) do not commute: the two resolution orders differ
    bad = validate_skeleton(_cube_graph({1: 2, 2: 1, 3: 3}, {1: 1, 2: 3, 3: 2}))
    assert not bad.ok
    assert "cube-inconsistent" in bad.codes()


def test_triple_product_is_cube_consistent(g1):
    sk = combine(combine(g1, g1, "product"), g1, "product")
    assert sk.k == 3
    assert validate_skeleton(sk).ok


def _spread(sk, k, colors):
    """sk with color c renamed colors[c], as a rank-k skeleton whose other
    colors have no edges."""
    edges = tuple(ColoredEdge(e.id, colors[e.color], e.range, e.source) for e in sk.edges)
    squares = tuple(
        SquareRule((colors[r.pair[0]], colors[r.pair[1]]), r.left, r.right) for r in sk.squares
    )
    return Skeleton(k, sk.vertices, edges, squares)


def test_validation_visits_only_the_color_pairs_that_have_edges(monkeypatch):
    visited = []
    check = core._check_square_pair

    def counting(sk, i, j, table, out):
        visited.append((i, j))
        return check(sk, i, j, table, out)

    monkeypatch.setattr(core, "_check_square_pair", counting)
    bad_cube = _cube_graph({1: 2, 2: 1, 3: 3}, {1: 1, 2: 3, 3: 2})
    missing = Skeleton(bad_cube.k, bad_cube.vertices, bad_cube.edges, bad_cube.squares[1:])
    codes = set()
    for base in (_cube_graph({1: 1, 2: 2, 3: 3}, {1: 1, 2: 2, 3: 3}), bad_cube, missing):
        sk = _spread(base, 6, (0, 2, 5))
        visited.clear()
        report = validate_skeleton(sk)
        codes.update(report.codes())
        assert visited == [(0, 2), (0, 5), (2, 5)]
        # the same violations, in the same order, as a sweep of every pair
        # and every triple of the six colors
        every: list = []
        square_ok = all(
            [
                check(sk, i, j, {r.left: r.right for r in sk.squares if r.pair == (i, j)}, every)
                for i, j in itertools.combinations(range(6), 2)
            ]
        )
        if square_ok:
            core._check_cubes(sk, list(range(6)), every)
        core._check_standing_assumption(sk, every)
        assert report.violations == tuple(every)
    assert {"cube-inconsistent", "square-missing", "standing-assumption-range"} <= codes
    visited.clear()
    assert len(validate_skeleton(Skeleton(1000, ("v",), (), ())).violations) == 2000
    assert visited == []


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_g1_matches_brute_force(g1):
    # oracle: raw words over the two loops
    words = set(itertools.product("ab", repeat=3))
    got = enumerate_morphisms(g1, (3,))
    assert len(got) == 8
    assert {m.word for m in got} == words


def test_enumerate_degree_zero_gives_identities(test_graphs):
    for sk in test_graphs:
        idents = enumerate_morphisms(sk, dv.zero(sk.k))
        assert {m.range for m in idents} == set(sk.vertices)
        assert all(m.is_identity and m.range == m.source for m in idents)


def test_enumerate_g3_degree_one_one(g3):
    got = enumerate_morphisms(g3, (1, 1))
    assert len(got) == 4
    for m in got:
        assert g3.color_of[m.word[0]] == 0 and g3.color_of[m.word[1]] == 1


def test_enumeration_cap(g1):
    with pytest.raises(BoundExceeded):
        enumerate_morphisms(g1, (30,), cap=1000)


def test_count_matches_enumeration(test_graphs):
    for sk in test_graphs:
        for n in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k)):
            assert count_morphisms(sk, n) == len(enumerate_morphisms(sk, n))


# ---------------------------------------------------------------------------
# composition and factorisation
# ---------------------------------------------------------------------------


def test_identity_laws(g2):
    uv = make_morphism(g2, ["uv"])
    assert compose(identity(g2, "v"), uv) == uv
    assert compose(uv, identity(g2, "u")) == uv


def test_compose_swaps_through_the_square(g3):
    r2 = make_morphism(g3, ["r2"])
    b1 = make_morphism(g3, ["b1"])
    out = compose(r2, b1)
    # the flip table pairs (b1, r2) with (r2, b1), so r2*b1 = b1*r2
    assert out.word == ("b1", "r2")
    assert out.degree == (1, 1)


def test_compose_concatenates_for_k1(g1):
    ab = compose(make_morphism(g1, ["a"]), make_morphism(g1, ["b"]))
    assert ab.word == ("a", "b") and ab.degree == (2,)


def test_compose_rejects_mismatched_endpoints(g2):
    uv = make_morphism(g2, ["uv"])
    with pytest.raises(NotComposable):
        compose(uv, uv)


def test_factorize_zero_split(g1):
    lam = make_morphism(g1, ["a", "b", "a"])
    left, right = factorize(lam, (0,), (3,))
    assert left == identity(g1, "v") and right == lam


def test_factorize_reads_the_square_table(g3):
    lam = compose(make_morphism(g3, ["b1"]), make_morphism(g3, ["r2"]))
    red, blue = factorize(lam, (0, 1), (1, 0))
    assert red.word == ("r2",) and blue.word == ("b1",)


def test_factorize_prefix_split_k1(g1):
    lam = make_morphism(g1, ["a", "b", "a"])
    head, tail = factorize(lam, (1,), (2,))
    assert head.word == ("a",) and tail.word == ("b", "a")


def test_factorize_degree_mismatch(g1):
    lam = make_morphism(g1, ["a", "b"])
    with pytest.raises(DegreeMismatch):
        factorize(lam, (2,), (1,))


def test_factorization_uniqueness_exhaustive(test_graphs):
    for sk in test_graphs:
        for d in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k)):
            lams = enumerate_morphisms(sk, d)
            for n1 in dv.box(dv.zero(sk.k), d):
                n2 = dv.sub(d, n1)
                hits = {}
                for p1 in enumerate_morphisms(sk, n1):
                    for p2 in enumerate_morphisms(sk, n2):
                        if p1.source == p2.range:
                            hits.setdefault(compose(p1, p2), []).append((p1, p2))
                for lam in lams:
                    assert len(hits[lam]) == 1
                    assert factorize(lam, n1, n2) == hits[lam][0]


def test_associativity_exhaustive_small(g3, g2):
    for sk in (g3, g2):
        pool = [
            m
            for d in dv.box(dv.zero(sk.k), dv.ones(sk.k))
            for m in enumerate_morphisms(sk, d)
        ]
        for m1 in pool:
            for m2 in pool:
                if m1.source != m2.range:
                    continue
                for m3 in pool:
                    if m2.source != m3.range:
                        continue
                    assert compose(compose(m1, m2), m3) == compose(m1, compose(m2, m3))


def test_normal_form_is_canonical_on_g5(g5_periodic):
    # b_i r_j = r_i b_j, so reading r2 b1 backwards through the table
    # gives the b2 r1 normal form
    m = make_morphism(g5_periodic, ["r2", "b1"])
    assert m.word == ("b2", "r1")


def test_normal_form_confluence_random_swap_orders(g3, g5_periodic, random_skeletons):
    from kgraphs.core import _swap

    rng = random.Random(11)
    graphs = [g3, g5_periodic] + [sk for sk in random_skeletons if sk.k >= 2]
    for sk in graphs:
        colors = sk.color_of
        for _ in range(150):
            length = rng.randint(2, 6)
            v = rng.choice(sk.vertices)
            word = []
            for _ in range(length):
                options = [e for c in range(sk.k) for e in sk.edges_with_range(v, c)]
                e = rng.choice(options)
                word.append(e.id)
                v = e.source
            reference = make_morphism(sk, word)
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
            assert tuple(trial) == reference.word


def test_subblock_nesting(g3):
    lam = enumerate_morphisms(g3, (2, 2))[7]
    outer = subblock(lam, (0, 1), (2, 2))
    inner = subblock(outer, (1, 0), (2, 1))
    assert inner == subblock(lam, (1, 1), (2, 2))


def test_subblock_is_the_chained_factorization(fixture_graphs, random_skeletons):
    # lam(a, b) is the head of degree b - a of the tail of degree d - a, on
    # every box [a, b] of [0, d(lam)] of every lam of degree <= 2e: point
    # boxes (the identity at x(a)), a = 0 and b = d(lam) included
    assert random_skeletons[4].k == 3
    boxes = 0
    for sk in [*fixture_graphs.values(), random_skeletons[4]]:
        zero = dv.zero(sk.k)
        for d in dv.box(zero, dv.scaled(2, sk.k)):
            for lam in enumerate_morphisms(sk, d):
                for a in dv.box(zero, d):
                    _, tail = factorize(lam, a, dv.sub(d, a))
                    assert subblock(lam, a, a) == identity(sk, tail.range)
                    for b in dv.box(a, d):
                        mid, _ = factorize(tail, dv.sub(b, a), dv.sub(d, b))
                        assert subblock(lam, a, b) == mid, (lam, a, b)
                        boxes += 1
                bad = dv.add(d, dv.ones(sk.k))
                for a, b in [(zero, bad), (dv.neg(dv.ones(sk.k)), d), (d, zero)]:
                    if a == b == zero:
                        continue
                    message = f"box [{a}, {b}] does not sit inside [0, {d}]"
                    with pytest.raises(DegreeMismatch, match=re.escape(message)):
                        subblock(lam, a, b)
    assert boxes > 30_000


def test_make_morphism_errors(g1, g2):
    with pytest.raises(MalformedSkeleton):
        make_morphism(g1, ["a", "nope"])
    with pytest.raises(NotComposable):
        make_morphism(g2, ["uv", "uv"])
    with pytest.raises(DegreeMismatch):
        make_morphism(g1, [])
    assert make_morphism(g1, [], vertex="v") == identity(g1, "v")


def test_rewriting_names_a_missing_square(g3):
    # g3 without its square b2*r1 = r1*b2: each rewrite that needs it,
    # either way round, raises naming the pair it could not swap.  In the
    # first skeleton b2 and r1 keep their other squares, so the table lacks
    # the second edge of the pair; in the second they lie on no square at
    # all, so it lacks the first edge
    inner = tuple(r for r in g3.squares if r.left != ("b2", "r1"))
    outer = tuple(r for r in g3.squares if "b2" not in r.left and "r1" not in r.left)

    def missing(pair):
        return pytest.raises(
            ValidationFailure, match=re.escape(f"square table (0,1) has no entry for pair {pair}")
        )

    for squares, listed in [(inner, True), (outer, False)]:
        sk = Skeleton(g3.k, g3.vertices, g3.edges, squares)
        assert ("b2" in sk.square_swap) == ("r1" in sk.square_swap) == listed
        with missing(("r1", "b2")):
            make_morphism(sk, ["r1", "b2"])
        with missing(("r1", "b2")):
            compose(make_morphism(sk, ["r1"]), make_morphism(sk, ["b2"]))
        lam = make_morphism(sk, ["b2", "r1"])  # already in normal form
        with missing(("b2", "r1")):
            factorize(lam, (0, 1), (1, 0))
        with missing(("b2", "r1")):
            subblock(lam, (0, 1), (1, 1))
        with missing(("b2", "r1")):
            unit_grid(lam)
        b2, r1 = make_morphism(sk, ["b2"]), make_morphism(sk, ["r1"])
        assert factorize(lam, (1, 0), (0, 1)) == (b2, r1)
        assert subblock(lam, (1, 0), (1, 1)) == r1


class _CountingRow(dict):
    """A row of a square table that records every lookup made in it."""

    def __init__(self, row, lookups):
        super().__init__(row)
        self.lookups = lookups

    def __getitem__(self, key):
        self.lookups.append(key)
        return super().__getitem__(key)


def test_normalizing_makes_one_square_lookup_per_color_inversion(g3, random_skeletons):
    # stable insertion swaps each pair of edges out of color order once,
    # and each swap reads the nested table once
    rng = random.Random(11)
    for base in [g3, *(sk for sk in random_skeletons if sk.k > 1)]:
        sk = Skeleton(base.k, base.vertices, base.edges, base.squares)
        lookups = []
        sk.__dict__["square_swap"] = {
            f: _CountingRow(row, lookups) for f, row in sk.square_swap.items()
        }
        for length in (0, 1, 2, 5, 12, 30):
            for v in sk.vertices:
                word = _walk(sk, v, length, rng)
                colors = [sk.color_of[eid] for eid in word]
                inversions = sum(
                    ci > cj for i, ci in enumerate(colors) for cj in colors[i + 1 :]
                )
                lookups.clear()
                out = _normalize_word(sk, word)
                assert len(lookups) == inversions, (word, lookups)
                assert sorted(colors) == [sk.color_of[eid] for eid in out]


def test_sample_morphism_uniform(g1):
    rng = random.Random(3)
    counts = {}
    for _ in range(2000):
        m = sample_morphism(g1, (2,), rng)
        counts[m.word] = counts.get(m.word, 0) + 1
    assert set(counts) == set(itertools.product("ab", repeat=2))
    assert all(380 <= c <= 620 for c in counts.values())


def _walk(sk, v, length, rng):
    """A composable word of ``length`` edges from the range end at v, its
    colors in random order."""
    word = []
    for _ in range(length):
        e = rng.choice([e for c in range(sk.k) for e in sk.edges_with_range(v, c)])
        word.append(e.id)
        v = e.source
    return word


def test_a_morphism_is_its_normal_word(fixture_graphs, random_skeletons):
    # whichever way a path is built, its word is color-sorted, its degree
    # counts the colors of the word, and (word, range, source) alone decide
    # equality and hash
    rng = random.Random(5)
    assert random_skeletons[4].k == 3
    for sk in [*fixture_graphs.values(), random_skeletons[4]]:
        zero, e, two = dv.zero(sk.k), dv.ones(sk.k), dv.scaled(2, sk.k)
        pool = enumerate_morphisms(sk, zero) + enumerate_morphisms(sk, e)
        bodies = [sample_morphism(sk, two, rng) for _ in range(3)]
        made = pool + bodies
        made += [make_morphism(sk, _walk(sk, v, 3 * sk.k, rng)) for v in sk.vertices]
        made += [compose(a, b) for a in pool for b in pool if a.source == b.range]
        for lam in bodies:
            for a in dv.box(zero, two):
                made += factorize(lam, a, dv.sub(two, a))
                made += [subblock(lam, a, b) for b in dv.box(a, two)]
        for w in all_windows(sk, 1)[:4]:
            made += [w.past, w.future]
            made += [w.extract(lo, hi) for lo in dv.box(dv.neg(e), e) for hi in dv.box(lo, e)]
        ops = [opposite_morphism(m) for m in made]
        made += ops + [opposite_morphism(m) for m in ops]
        first = {}
        for m in made:
            colors = [m.skeleton.color_of[eid] for eid in m.word]
            assert colors == sorted(colors), m
            assert m.degree == tuple(colors.count(c) for c in range(sk.k)), m
            same = first.setdefault((m.skeleton, m.word, m.range, m.source), m)
            assert m == same and hash(m) == hash(same)
        assert len(set(made)) == len(first) < len(made)


def test_trusted_constructor_builds_the_public_morphism(fixture_graphs):
    # _morphism fills the slots that Morphism(...) fills through its frozen
    # __init__: the two objects are interchangeable, and both stay frozen
    # and carry no per-instance __dict__
    for sk in fixture_graphs.values():
        for lam in enumerate_morphisms(sk, dv.zero(sk.k)) + enumerate_morphisms(sk, dv.ones(sk.k)):
            fields = (sk, lam.degree, lam.word, lam.range, lam.source)
            trusted, public = _morphism(*fields), Morphism(*fields)
            assert trusted == public == lam
            assert hash(trusted) == hash(public) == hash(lam)
            assert repr(trusted) == repr(public)
            for m in (trusted, public):
                assert not hasattr(m, "__dict__")
                with pytest.raises(FrozenInstanceError):
                    m.word = ()
                with pytest.raises(FrozenInstanceError):
                    m.degree = dv.zero(sk.k)


# ---------------------------------------------------------------------------
# derived graphs
# ---------------------------------------------------------------------------


def test_opposite_is_an_exact_involution(test_graphs):
    for sk in test_graphs:
        op = opposite_graph(sk)
        assert validate_skeleton(op).ok
        assert opposite_graph(op) is sk


def test_an_opposite_that_outlives_its_graph_builds_it_again(g3):
    # the opposite holds its graph weakly: once the graph is gone, the
    # opposite of the opposite is an equal graph, built afresh and kept
    op = opposite_graph(Skeleton(g3.k, g3.vertices, g3.edges, g3.squares))
    again = opposite_graph(op)
    assert again == g3
    assert opposite_graph(op) is again
    assert opposite_graph(again) is op


def test_suites_leave_no_reference_cycles():
    # a graph and its opposite memoize each other, so a strong reference
    # both ways would keep every suite's graphs and grid plans alive until
    # a full collection
    texts = [(FIXTURES / f"{name}.json").read_text() for name in ("g1", "g2", "g3", "g4")]
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            assert run("suite", text).exit_code == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_opposite_matrices_are_transposes(g2, test_graphs):
    for sk in test_graphs:
        op = opposite_graph(sk)
        for p in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k)):
            assert vertex_matrix(op, p).entries == vertex_matrix(sk, p).transpose().entries


def test_opposite_morphism_reverses_words(g1):
    m = make_morphism(g1, ["a", "b"])
    assert opposite_morphism(m).word == ("b", "a")
    assert opposite_morphism(opposite_morphism(m)) == m


def test_product_of_g1_with_itself(g1):
    sk = combine(g1, g1, "product")
    assert sk.k == 2
    assert len(sk.vertices) == 1
    assert validate_skeleton(sk).ok
    assert vertex_matrix(sk, (1, 0)).entries == ((2,),)
    assert vertex_matrix(sk, (0, 1)).entries == ((2,),)


def test_product_with_single_loop_keeps_matrices(g2):
    point = Skeleton(1, ("p",), (ColoredEdge("loop", 0, "p", "p"),), ())
    sk = combine(g2, point, "product")
    assert validate_skeleton(sk).ok
    assert len(sk.vertices) == len(g2.vertices)
    assert vertex_matrix(sk, (1, 0)).entries == vertex_matrix(g2, (1,)).entries


def test_diamond_of_g1_with_itself(g1):
    sk = combine(g1, g1, "diamond")
    assert sk.k == 1
    assert validate_skeleton(sk).ok
    assert vertex_matrix(sk, (1,)).entries == ((4,),)


def test_diamond_needs_equal_rank(g1, g3):
    with pytest.raises(RankMismatch):
        combine(g1, g3, "diamond")


def test_combine_rejects_unknown_mode(g1):
    with pytest.raises(ValueError):
        combine(g1, g1, "tensor")


def test_diagonal_restriction(g1, g3, g4):
    d1 = diagonal_restriction(g1)
    assert d1.k == 1 and vertex_matrix(d1, (1,)).entries == ((2,),)
    d3 = diagonal_restriction(g3)
    assert validate_skeleton(d3).ok
    assert vertex_matrix(d3, (1,)).entries == vertex_matrix(g3, (1, 1)).entries == ((4,),)
    d4 = diagonal_restriction(g4)
    assert vertex_matrix(d4, (1,)).entries == ((1,),)
