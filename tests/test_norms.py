import random
from fractions import Fraction
from itertools import combinations

import pytest

from alexlab import alexinv, fpgroup, laurent
from alexlab.errors import DomainError, LimitError, ParseError
from alexlab.laurent import LaurentPoly
from alexlab.norms import (
    CohomologyClass,
    FiberedDatum,
    alexander_norm,
    hull_vertices,
    mcmullen_check,
    parse_thurston_data,
    support_polytope,
)

from corpus import ALL, WHITEHEAD


def P(nvars, *terms):
    return laurent.poly_from_pairs(nvars, [(e, c) for e, c in terms])


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
        if delta.nvars > 4 or delta.is_constant():
            continue
        verts = support_polytope(delta).vertices
        rows = [tuple(int(x) for x in v) for v in verts if any(v)]
        dim = exactla.integer_rank(exactla.IntMatrix.from_rows(rows)) if rows else 0
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
