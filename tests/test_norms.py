import random
from fractions import Fraction
from itertools import combinations

import pytest

from alexlab import alexinv, fpgroup, laurent, norms
from alexlab.errors import DomainError, LimitError, ParseError
from alexlab.laurent import LaurentPoly
from alexlab.norms import (
    CohomologyClass,
    FiberedDatum,
    alexander_norm,
    hull_vertices,
    in_convex_hull,
    mcmullen_check,
    parse_thurston_data,
    support_polytope,
)

from corpus import ALL, WHITEHEAD


def P(nvars, *terms):
    return LaurentPoly(nvars, terms)


ONE_X_Y = P(2, ((0, 0), 1), ((1, 0), 1), ((0, 1), 1))
SOL_POLY = P(1, ((0,), 1), ((1,), -3), ((2,), 1))


def corpus_first_orders():
    out = []
    for entry in ALL:
        F = fpgroup.fox_matrix(entry.presentation)
        _, delta = alexinv.first_order(F)
        if not delta.is_zero():
            out.append((entry, delta))
    return out


# -- alexander norm ----------------------------------------------------------------


def test_alexander_norm_examples():
    assert alexander_norm(ONE_X_Y, CohomologyClass.of([1, 0])) == 1
    assert alexander_norm(LaurentPoly.zero(2), CohomologyClass.of([5, -7])) == 0
    assert alexander_norm(SOL_POLY, CohomologyClass.of([1])) == 2


def test_alexander_norm_rank_mismatch():
    with pytest.raises(DomainError):
        alexander_norm(ONE_X_Y, CohomologyClass.of([1]))


def test_cohomology_class_refuses_entries_that_are_not_ints():
    # Refused, not truncated or parsed; a bool is taken as its int.
    for values in ([1.5, 2], [1, "2"], [1.0]):
        with pytest.raises(DomainError):
            CohomologyClass.of(values)
    phi = CohomologyClass.of(iter([True, 2])).phi
    assert phi == (1, 2) and all(type(x) is int for x in phi)


def test_homogeneity_and_symmetry():
    for entry, delta in corpus_first_orders():
        n = delta.nvars
        base = [1] * n
        for k in range(-5, 6):
            phi = CohomologyClass.of([k * x for x in base])
            assert alexander_norm(delta, phi) == abs(k) * alexander_norm(
                delta, CohomologyClass.of(base)
            ), entry.name
        if n:
            phi = CohomologyClass.of([2] + [1] * (n - 1))
            neg = CohomologyClass.of([-2] + [-1] * (n - 1))
            assert alexander_norm(delta, phi) == alexander_norm(delta, neg)


# -- support polytope -----------------------------------------------------------------


def _solve_unique(cols, rhs):
    """Unique rational solution of the square-ish system, or None."""
    m = len(rhs)
    n = len(cols)
    A = [[Fraction(cols[j][i]) for j in range(n)] + [Fraction(rhs[i])] for i in range(m)]
    row = 0
    piv_cols = []
    for col in range(n):
        piv = next((i for i in range(row, m) if A[i][col] != 0), None)
        if piv is None:
            return None  # rank-deficient: not a unique solution
        A[row], A[piv] = A[piv], A[row]
        A[row] = [x / A[row][col] for x in A[row]]
        for i in range(m):
            if i != row and A[i][col] != 0:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[row])]
        piv_cols.append(col)
        row += 1
        if row == m:
            break
    if row < n:
        return None
    for i in range(row, m):
        if A[i][-1] != 0:
            return None  # inconsistent
    return [A[i][-1] for i in range(n)]


def conv_member_oracle(p, pts):
    """Caratheodory brute force: p is in the hull iff some affinely
    independent subset of size <= dim+1 carries it with weights >= 0."""
    pts = [tuple(q) for q in pts]
    n = len(p)
    for size in range(1, n + 2):
        for sub in combinations(pts, size):
            cols = [q + (1,) for q in sub]
            lam = _solve_unique(cols, tuple(p) + (1,))
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def _reference_phase1_feasible(cols, rhs) -> bool:
    """The Fraction tableau that `norms._phase1_feasible` replaced: phase 1
    with artificial variables and Bland's rule, reduced costs recomputed on
    every iteration."""
    m = len(rhs)
    n = len(cols)
    T = [[Fraction(cols[j][i]) for j in range(n)] for i in range(m)]
    b = [Fraction(x) for x in rhs]
    for i in range(m):
        if b[i] < 0:
            T[i] = [-x for x in T[i]]
            b[i] = -b[i]
    for i in range(m):
        T[i] += [Fraction(1 if k == i else 0) for k in range(m)]
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * n + [Fraction(1)] * m
    while True:
        entering = None
        for j in range(n + m):
            r = cost[j] - sum(cost[basis[i]] * T[i][j] for i in range(m))
            if r < 0:
                entering = j
                break
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            if T[i][entering] > 0:
                ratio = b[i] / T[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            break
        piv = T[leaving][entering]
        T[leaving] = [x / piv for x in T[leaving]]
        b[leaving] /= piv
        for i in range(m):
            if i != leaving and T[i][entering] != 0:
                f = T[i][entering]
                T[i] = [x - f * y for x, y in zip(T[i], T[leaving])]
                b[i] -= f * b[leaving]
        basis[leaving] = entering
    return sum(cost[basis[i]] * b[i] for i in range(m)) == 0


def _reference_in_convex_hull(point, points) -> bool:
    pts = list(points)
    if not pts:
        return False
    return _reference_phase1_feasible([tuple(q) + (1,) for q in pts], tuple(point) + (1,))


def _reference_hull_vertices(points, member=_reference_in_convex_hull):
    pts = sorted(set(tuple(x) for x in points))
    return [p for i, p in enumerate(pts) if not member(p, pts[:i] + pts[i + 1 :])]


def _random_point_sets(rng):
    """Seeded point sets in 1-4 dimensions: general position, duplicates,
    collinear, coplanar, lower-dimensional and single points, with
    negative coordinates throughout."""
    out = []
    for case in range(100):
        dim = 1 + case % 4
        kind = case // 4 % 5

        def vec(lo=-4, hi=4):
            return tuple(rng.randint(lo, hi) for _ in range(dim))

        if kind == 0:  # general, small box
            pts = [vec() for _ in range(rng.randint(2, 9))]
        elif kind == 1:  # duplicates drawn from a small pool
            pool = [vec() for _ in range(rng.randint(1, 4))]
            pts = [rng.choice(pool) for _ in range(rng.randint(2, 8))]
        elif kind == 2:  # collinear
            base, step = vec(), vec(-2, 2)
            pts = [tuple(b + k * s for b, s in zip(base, step)) for k in rng.sample(range(-5, 6), rng.randint(2, 6))]
        elif kind == 3:  # coplanar: an affine plane (a line in dimension 1)
            base, u, v = vec(), vec(-2, 2), vec(-2, 2)
            pts = [
                tuple(b + s * x + t * y for b, x, y in zip(base, u, v))
                for s, t in ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(2, 8)))
            ]
        else:  # a single point, or a set inside a coordinate hyperplane
            if rng.random() < 0.4:
                pts = [vec()]
            else:
                c = rng.randint(-3, 3)
                pts = [vec()[:-1] + (c,) for _ in range(rng.randint(2, 7))]
        out.append(pts)
    return out


def _queries(rng, pts):
    dim = len(pts[0])
    qs = [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(3)]
    qs += list(pts[:3])
    a, b = rng.choice(pts), rng.choice(pts)
    qs.append(tuple(Fraction(x + y, 2) for x, y in zip(a, b)))
    qs.append(tuple(Fraction(2 * x - y, 1) + Fraction(1, 3) for x, y in zip(a, b)))
    return qs


def test_phase1_kernel_matches_fraction_reference():
    """Random integer systems A x = b, x >= 0, including negative and zero
    right-hand sides and degenerate ratio-test ties."""
    rng = random.Random(1968)
    feasible = 0
    for _ in range(600):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        cols = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(n)]
        if rng.random() < 0.5:  # make it feasible by construction
            x = [rng.randint(0, 2) for _ in range(n)]
            rhs = tuple(sum(c[i] * xj for c, xj in zip(cols, x)) for i in range(m))
        else:
            rhs = tuple(rng.randint(-4, 4) for _ in range(m))
        want = _reference_phase1_feasible(cols, rhs)
        assert norms._phase1_feasible(cols, rhs) == want, (cols, rhs)
        feasible += want
    assert 200 < feasible < 600


def test_hull_kernel_matches_fraction_reference_and_oracle():
    rng = random.Random(22)
    for pts in _random_point_sets(rng):
        verts = hull_vertices(pts)
        assert verts == _reference_hull_vertices(pts), pts
        distinct = sorted(set(pts))
        for q in _queries(rng, pts):
            got = in_convex_hull(q, pts)
            assert got == _reference_in_convex_hull(q, pts), (q, pts)
            assert got == conv_member_oracle(q, distinct), (q, pts)
            assert got == in_convex_hull(q, verts), (q, pts)


def test_hull_kernel_is_exact_on_huge_coordinates():
    """A float or a rounded ratio would merge these; the integer tableau
    does not."""
    big = 10**30
    assert in_convex_hull((big,), [(0,), (big,)])
    assert not in_convex_hull((big + 1,), [(0,), (big,)])
    tri = [(0, 0), (big, 0), (0, big)]
    assert in_convex_hull((big - 1, 1), tri)
    assert not in_convex_hull((big - 1, 2), tri)
    assert hull_vertices(tri + [(1, big - 1), (big // 2, big // 2 + 1)]) == [
        (0, 0),
        (0, big),
        (big // 2, big // 2 + 1),
        (big, 0),
    ]
    assert not in_convex_hull((Fraction(1, big), 0), [(0, 0), (0, 1)])


def test_hull_in_at_most_two_coordinates_solves_no_lp(monkeypatch):
    """`hull_vertices` and `support_polytope` with 0-2 coordinates agree with
    the Fraction-tableau reference without solving an LP; points on an edge,
    collinear sets and duplicates are not vertices."""

    def no_lp(cols, rhs):
        raise AssertionError("an LP was solved")

    half = Fraction(1, 2)
    disk = [(x, y) for x in range(-6, 7) for y in range(-6, 7) if x * x + y * y <= 36]
    assert len(disk) == 113
    # The Fraction tableau takes seconds on the disk, so its vertices come
    # from the integer tableau, which
    # test_phase1_kernel_matches_fraction_reference checks against it.
    disk_vertices = _reference_hull_vertices(disk, in_convex_hull)
    assert len(disk_vertices) == 12
    monkeypatch.setattr(norms, "_phase1_feasible", no_lp)
    grid = [(x, y) for x in range(3) for y in range(3)]
    cases = [
        [],
        [()],
        [(), ()],
        [(3,)],
        [(2,), (-1,), (2,), (0,), (5,)],
        [(Fraction(1, 3),), (0,), (Fraction(-7, 2),)],
        [(1, 1)],
        [(1, 1), (1, 1)],
        [(k, 2 * k - 1) for k in range(-3, 4)],
        [(0, k) for k in range(4)] + [(0, 2)],
        grid,
        [(0, 0), (half, 0), (1, 0), (0, Fraction(3, 2)), (half, Fraction(3, 4))],
        [(0, 0), (4, 0), (4, 0), (0, 4), (1, 1), (2, 2), (1, 3), (3, 1)],
    ]
    for pts in cases:
        assert hull_vertices(pts) == _reference_hull_vertices(pts), pts
    assert hull_vertices(disk) == disk_vertices
    # the difference hull of the grid is the 5 x 5 grid: edges with 5 points
    for supp in ([()], [(2,), (-1,), (0,), (5,)], grid, cases[-1]):
        delta = P(len(supp[0]), *((e, 1) for e in set(supp)))
        diffs = {tuple(a - b for a, b in zip(h, g)) for h in supp for g in supp}
        ball = tuple(tuple(Fraction(x) for x in v) for v in _reference_hull_vertices(diffs))
        assert support_polytope(delta).vertices == ball, supp


def test_hull_of_fraction_points_is_the_scaled_integer_hull():
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.randint(1, 3)
        den = rng.choice([2, 3, 6, 35])
        ints = [tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(rng.randint(1, 8))]
        fracs = [tuple(Fraction(x, den) for x in q) for q in ints]
        want = [tuple(Fraction(x, den) for x in v) for v in hull_vertices(ints)]
        assert hull_vertices(fracs) == want, ints
    # mixed int and Fraction coordinates in one set
    assert hull_vertices([(0, 0), (Fraction(1, 2), 0), (1, 0), (0, Fraction(3, 2))]) == [
        (0, 0),
        (0, Fraction(3, 2)),
        (1, 0),
    ]


def test_in_convex_hull_with_fraction_query_points():
    square = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(-1, 2), Fraction(1, 2)),
              (Fraction(-1, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(-1, 2))]
    tri = [(0, 0), (3, 0), (0, 3)]
    assert in_convex_hull((Fraction(3, 2), Fraction(3, 2)), tri)  # on an edge
    assert in_convex_hull((Fraction(3), Fraction(0)), tri)  # at a vertex
    assert in_convex_hull((Fraction(1, 3), Fraction(1, 7)), tri)  # inside
    assert not in_convex_hull((Fraction(3, 2), Fraction(3, 2) + Fraction(1, 10**9)), tri)
    assert not in_convex_hull((Fraction(-1, 10**9), 1), tri)
    assert in_convex_hull((0, Fraction(1, 2)), square)  # on an edge
    assert in_convex_hull((Fraction(-1, 2), Fraction(1, 2)), square)  # at a vertex
    assert not in_convex_hull((Fraction(1, 2), Fraction(1, 2) + Fraction(1, 1000)), square)
    assert not in_convex_hull((Fraction(1, 2),), [])


def test_support_polytope_examples():
    ball = support_polytope(SOL_POLY)
    assert ball.vertices == ((Fraction(-2),), (Fraction(2),))

    ball = support_polytope(ONE_X_Y)
    expected = {(-1, 0), (1, 0), (0, -1), (0, 1), (1, -1), (-1, 1)}
    assert {tuple(int(x) for x in v) for v in ball.vertices} == expected
    # oracle: brute-force hull over the 9 difference vectors
    diffs = {
        tuple(a - b for a, b in zip(h, g))
        for h in ONE_X_Y.support()
        for g in ONE_X_Y.support()
    }
    for d in diffs:
        others = [x for x in diffs if x != d]
        is_vertex = not conv_member_oracle(d, others)
        assert is_vertex == (tuple(Fraction(x) for x in d) in ball.vertices)

    ball = support_polytope(LaurentPoly.constant(2, 9))
    assert ball.vertices == ((Fraction(0), Fraction(0)),)


def test_support_polytope_matches_all_pairs_route():
    """Pairing only the hull vertices of S gives the vertices of the hull of
    all of S - S, on random supports in 2-4 variables."""
    rng = random.Random(8)
    for case in range(24):
        nv = 2 + case % 3
        supp = {tuple(rng.randint(-2, 2) for _ in range(nv)) for _ in range(rng.randint(1, 7))}
        delta = P(nv, *((e, rng.choice((-2, -1, 1, 3))) for e in supp))
        diffs = {tuple(a - b for a, b in zip(h, g)) for h in supp for g in supp}
        want = tuple(tuple(Fraction(x) for x in v) for v in hull_vertices(diffs))
        assert support_polytope(delta).vertices == want, supp


def test_support_polytope_errors():
    with pytest.raises(DomainError):
        support_polytope(LaurentPoly.zero(2))
    with pytest.raises(LimitError):
        support_polytope(LaurentPoly.one(5) + LaurentPoly.variable(5, 0))


def test_support_polytope_centrally_symmetric():
    for entry, delta in corpus_first_orders():
        if delta.nvars > 4:
            continue
        ball = support_polytope(delta)
        verts = set(ball.vertices)
        assert {tuple(-x for x in v) for v in verts} == verts, entry.name


def test_norm_equals_polytope_width():
    rng = random.Random(55)
    for entry, delta in corpus_first_orders():
        if delta.nvars > 4 or delta.nvars == 0:
            continue
        ball = support_polytope(delta)
        for _ in range(10):
            phi = CohomologyClass.of(
                [rng.randint(-3, 3) for _ in range(delta.nvars)]
            )
            by_support = alexander_norm(delta, phi)
            by_vertices = max(
                sum(p * x for p, x in zip(phi.phi, v)) for v in ball.vertices
            )
            assert by_support == by_vertices, entry.name


def test_newton_dim_matches_polytope_dimension():
    from alexlab import exactla

    for entry, delta in corpus_first_orders():
        if delta.nvars > 4 or delta.support() == ((0,) * delta.nvars,):
            continue
        verts = support_polytope(delta).vertices
        rows = [tuple(int(x) for x in v) for v in verts if any(v)]
        dim = exactla.integer_rank(rows)
        assert laurent.newton_dim(delta) == dim, entry.name


def test_corollary_5_2_properties():
    # fibered with negative fiber Euler characteristic forces thickness >= 1;
    # two non-equivalent fibered faces force thickness >= 2
    for entry in ALL:
        F = fpgroup.fox_matrix(entry.presentation)
        th = alexinv.thickness(F)
        if entry.fibered and entry.fiber_chi is not None and entry.fiber_chi < 0:
            assert th >= 1, entry.name
        if entry.fibered_faces is not None and entry.fibered_faces >= 2:
            assert th >= 2, entry.name


# -- McMullen harness ----------------------------------------------------------------


def test_mcmullen_examples():
    rep = mcmullen_check(
        ONE_X_Y, [FiberedDatum(CohomologyClass.of([1, 0]), 1, True)]
    )
    assert rep.entries[0].status == "PASS"
    rep = mcmullen_check(
        ONE_X_Y, [FiberedDatum(CohomologyClass.of([1, 0]), 0, False)]
    )
    assert rep.entries[0].status == "FAIL"  # 1 > 0
    rep = mcmullen_check(
        ONE_X_Y, [FiberedDatum(CohomologyClass.of([1, 1]), 2, True)]
    )
    assert rep.entries[0].status == "FAIL"  # 1 != 2 on a fibered class


def test_mcmullen_requires_b1_at_least_2():
    with pytest.raises(DomainError):
        mcmullen_check(SOL_POLY, [])


def test_mcmullen_whitehead_declared_data():
    F = fpgroup.fox_matrix(WHITEHEAD.presentation)
    _, delta = alexinv.first_order(F)
    data = [
        FiberedDatum(CohomologyClass.of([1, 0]), 1, True),
        FiberedDatum(CohomologyClass.of([0, 1]), 1, True),
        FiberedDatum(CohomologyClass.of([1, 1]), 2, True),
        FiberedDatum(CohomologyClass.of([1, -1]), 2, True),
    ]
    rep = mcmullen_check(delta, data)
    assert rep.all_pass


def test_parse_thurston_data():
    data = parse_thurston_data(
        "# comment\nphi 1 0 thurston 1 fibered 1\nphi 0 1 thurston 2 fibered 0\n"
    )
    assert data[0] == FiberedDatum(CohomologyClass.of([1, 0]), 1, True)
    assert data[1] == FiberedDatum(CohomologyClass.of([0, 1]), 2, False)
    for bad in (
        "phi thurston 1 fibered 1\n",
        "phi 1 thurston fibered 1\n",
        "phi 1 thurston 1 fibered 2\n",
        "phi 1 thurston -1 fibered 1\n",
        "thurston 1 fibered 1\n",
        "phi 1 thurston 1 fibered 1 extra\n",
    ):
        with pytest.raises(ParseError):
            parse_thurston_data(bad)


@pytest.mark.parametrize("line", ["phi 1 0 thurst 1 fibered 1", "phi 1 0"])
def test_parse_thurston_data_expects_keyword_after_phi(line):
    # phi ends at its first non-integer token, which must be 'thurston'
    with pytest.raises(ParseError, match="line 1: expected 'thurston'"):
        parse_thurston_data(line + "\n")
