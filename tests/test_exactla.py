import random
from itertools import combinations, permutations
from math import gcd
from operator import floordiv

import pytest
from hypothesis import given, settings, strategies as st

from alexlab import exactla
from alexlab.errors import DomainError


def random_matrix(rng, max_dim=5, lo=-9, hi=9):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(A, B):
    """Oracle: the product of two row lists, entry by entry."""
    n, m = len(B), len(B[0])
    return [[sum(a[k] * B[k][j] for k in range(n)) for j in range(m)] for a in A]


def determinant(rows):
    """Exact determinant of a square row list, by `exactla.bareiss`."""
    rank, minor = exactla.bareiss([list(r) for r in rows], floordiv, lambda e: abs(e) or None)
    return minor if rank == len(rows) else 0


def kernel_basis(rows):
    """Oracle: a basis of the saturated lattice {v : A v = 0}, the last
    columns of V in a Smith form U A V, past the rank."""
    _, d, V = exactla.smith_normal_form(rows)
    n, rank = len(V), sum(1 for x in d if x)
    return [tuple(V[i][j] for i in range(n)) for j in range(rank, n)]


def minor_gcd(A, k):
    """Oracle: gcd of all k x k minors, by direct enumeration."""
    g = 0
    for rows in combinations(range(len(A)), k):
        for cols in combinations(range(len(A[0])), k):
            g = gcd(g, determinant([[A[i][j] for j in cols] for i in rows]))
    return g


def check_snf(A):
    U, d, V = exactla.smith_normal_form(A)
    nr, nc = len(A), len(A[0])
    assert len(d) == min(nr, nc)
    D = [[d[i] if i == j else 0 for j in range(nc)] for i in range(nr)]
    assert matmul(matmul(U, A), V) == D
    assert abs(determinant(U)) == 1
    assert abs(determinant(V)) == 1
    for a, b in zip(d, d[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return U, d, V


def test_snf_identity():
    A = identity(2)
    assert check_snf(A) == (A, [1, 1], A)


def test_snf_2x2_example():
    # Oracle: d1 = gcd of entries = 2, d1*d2 = |det| = |2*8 - 4*6| = 8.
    _, d, _ = check_snf([[2, 4], [6, 8]])
    assert d == [2, 4]


def test_snf_zero_matrix():
    _, d, _ = check_snf([[0, 0, 0], [0, 0, 0]])
    assert d == [0, 0]


def test_snf_uniqueness_of_d():
    rng = random.Random(7)
    A = random_matrix(rng)
    assert exactla.smith_normal_form(A) == exactla.smith_normal_form(A)


def test_snf_random_500():
    rng = random.Random(20240901)
    for _ in range(500):
        A = random_matrix(rng)
        _, diag, _ = check_snf(A)
        # Determinantal divisors: product of the first k diagonal entries
        # equals the gcd of all k x k minors.
        prod = 1
        for k in range(1, len(diag) + 1):
            prod *= diag[k - 1]
            assert abs(prod) == minor_gcd(A, k)


def test_integer_rank_examples():
    assert exactla.integer_rank([[1, 2], [2, 4]]) == 1
    assert exactla.integer_rank([]) == 0
    assert exactla.integer_rank(identity(4)) == 4
    assert exactla.integer_rank(iter([(0, 0, 0), (1, 2, 3), (2, 4, 7)])) == 2


def test_integer_rank_reads_no_row_after_full_column_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 0], [0, 0, 5], [7, 8, 9], [1, 1, 1]]
    it = iter(rows)
    assert exactla.integer_rank(it) == 3
    assert list(it) == rows[4:]
    # Below full column rank every row is read.
    it = iter(rows[:3] + [[1, 3, 3]])
    assert exactla.integer_rank(it) == 2
    assert list(it) == []


def test_ragged_rows_raise_domain_error():
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[0, 0], [1, 2, 3]]):
        with pytest.raises(DomainError):
            exactla.smith_normal_form(rows)
    for rows in ([[1, 2], [3]], [[0, 0], [1, 2, 3]], iter([(1, 0, 0), (0, 1)])):
        with pytest.raises(DomainError):
            exactla.integer_rank(rows)


def leibniz(rows):
    """Oracle: signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(rows))):
        term = -1 if sum(x > y for x, y in combinations(perm, 2)) % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_determinant_sign_matches_leibniz():
    rng = random.Random(1968)
    singular = swapped_both = 0
    for t in range(300):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if t % 3 == 0:
            rows[0][0] = 0  # the first pivot cannot sit at (0, 0)
        if t % 4 == 0 and n > 1:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        # The first pivot is the least nonzero |entry|, first in row-major
        # order; count the matrices where it needs a row and a column swap.
        nonzero = [(abs(e), i, j) for i, r in enumerate(rows) for j, e in enumerate(r) if e]
        if nonzero and min(nonzero)[1] > 0 and min(nonzero)[2] > 0:
            swapped_both += 1
        expected = leibniz(rows)
        singular += expected == 0
        assert determinant(rows) == expected, rows
    assert singular >= 50 and swapped_both >= 30


def test_bareiss_minor_on_pivot_rows_and_columns():
    # On a rectangular or singular matrix, the minor is the signed
    # determinant of some rank-sized submatrix, rows and columns in order.
    rng = random.Random(22)
    for _ in range(100):
        A = random_matrix(rng, max_dim=4, lo=-3, hi=3)
        rank, minor = exactla.bareiss([r[:] for r in A], floordiv, lambda e: abs(e) or None)
        assert rank == exactla.integer_rank(A)
        subs = {
            leibniz([[A[i][j] for j in cols] for i in rows])
            for rows in combinations(range(len(A)), rank)
            for cols in combinations(range(len(A[0])), rank)
        }
        assert minor != 0 and minor in subs


def test_saturate_examples():
    assert exactla.saturate([(2, 0)], 2) == ((1, 0),)
    assert exactla.saturate([(2, 2)], 2) == ((1, 1),)
    # det(-2): saturation has index 2, hence is all of Z^2.
    assert exactla.saturate([(1, 2), (3, 4)], 2) == ((1, 0), (0, 1))


def test_saturate_idempotent_and_rank_preserving():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        s1 = exactla.saturate(rows, n)
        assert exactla.saturate(s1, n) == s1
        assert len(s1) == len(exactla.hermite_row_basis(rows, n))


def _saturate_reference(rows, n):
    """QL meet Z^n as the double integer kernel ker(ker(B)^T), B the
    Hermite basis of the rows."""
    B = exactla.hermite_row_basis(rows, n)
    if not B:
        return ()
    K = kernel_basis(B)
    return tuple(exactla.hermite_row_basis(kernel_basis(K) if K else identity(n), n))


def test_saturate_matches_double_kernel():
    rng = random.Random(2012)
    kinds = {"zero": 0, "full": 0, "deficient": 0}
    for t in range(300):
        n = rng.randint(1, 5)
        k = 0 if t % 10 == 0 else rng.randint(1, n + 1)
        scale = rng.choice((1, 2, 3, 6))
        rows = [[scale * rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        rank = len(exactla.hermite_row_basis(rows, n))
        kind = "zero" if not rank else "full" if rank == n else "deficient"
        kinds[kind] += 1
        assert exactla.saturate(rows, n) == _saturate_reference(rows, n), rows
    assert min(kinds.values()) >= 25, kinds


@st.composite
def _generating_rows(draw):
    """(n, rows) for an ambient n of 0 to 4: random rows, with zero rows,
    repeated rows and integer combinations of two rows mixed in."""
    n = draw(st.integers(0, 4))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "combination")), max_size=3)):
        if kind == "zero":
            rows.insert(draw(st.integers(0, len(rows))), [0] * n)
        elif rows:
            i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
            a, b = (1, 0) if kind == "repeat" else (draw(entry), draw(entry))
            rows.insert(draw(st.integers(0, len(rows))), [a * x + b * y for x, y in zip(rows[i], rows[j])])
    return n, rows


@settings(max_examples=300, deadline=None)
@given(_generating_rows())
def test_saturate_takes_any_generating_rows(case):
    # Dependent, zero or repeated rows, or none: the answer is the
    # reference's Hermite basis, as a tuple of row tuples, and saturated.
    n, rows = case
    s = exactla.saturate(rows, n)
    assert type(s) is tuple and all(type(r) is tuple for r in s)
    assert s == _saturate_reference(rows, n)
    assert exactla.hermite_row_basis(list(s), n) == list(s)
    assert exactla.saturate(s, n) == s


def test_saturate_skips_smith_form_exactly_for_unit_pivots(monkeypatch):
    """Echelon rows with pivots 1 (saturated already) against rows with
    one pivot 2 or 3, at rank 0, deficient rank and full rank: each matches
    the double-kernel reference, and only the latter take a Smith form."""
    snfs = []
    snf = exactla.smith_normal_form
    monkeypatch.setattr(exactla, "smith_normal_form", lambda A: snfs.append(A) or snf(A))
    rng = random.Random(15)
    seen = set()
    for t in range(300):
        n = rng.randint(1, 5)
        k = 0 if t % 10 == 0 else rng.randint(1, n)
        cols = sorted(rng.sample(range(n), k))
        pivot = rng.choice((1, 1, 2, 3)) if k else 1
        rows = []
        for i, c in enumerate(cols):
            row = [0] * c + [1] + [rng.randint(-3, 3) for _ in range(n - c - 1)]
            row[c] = pivot if i == k - 1 else 1
            rows.append(row)
        want = _saturate_reference(rows, n)
        del snfs[:]
        assert exactla.saturate(rows, n) == want, rows
        assert bool(snfs) == (pivot != 1), rows
        if pivot == 1:
            assert want == tuple(exactla.hermite_row_basis(rows, n))
        seen.add(("zero" if not k else "full" if k == n else "deficient", pivot))
    assert {(kind, p) for kind in ("full", "deficient") for p in (1, 2, 3)} <= seen
    assert ("zero", 1) in seen
    # Echelon rows with pivots 1 but not reduced above them are not a
    # Hermite basis; their Hermite basis has the same pivots, so they come
    # back canonical with no Smith form.
    del snfs[:]
    assert exactla.saturate([(1, 1), (0, 1)], 2) == ((1, 0), (0, 1))
    assert snfs == []
    assert _saturate_reference([(1, 1), (0, 1)], 2) == ((1, 0), (0, 1))


def test_hermite_basis_is_canonical_regression():
    # Two generating sets of one lattice: reducing above the pivots from the
    # bottom up gave ((1, 0, 3), ...) for the second.
    a = exactla.hermite_row_basis([(0, 1, 1), (1, 0, -1), (-1, 1, 0)], 3)
    b = exactla.hermite_row_basis([(-1, 2, 1), (1, 0, -1), (-1, 1, 0)], 3)
    assert a == b == [(1, 0, 1), (0, 1, 1), (0, 0, 2)]


def test_hermite_basis_refuses_entries_that_are_not_ints():
    # A float or a string is refused, not truncated or parsed; a bool is
    # taken as its int.
    for rows in ([(1.5, 0)], [("3", 0)], [(0, 0), (1, 2.0)]):
        with pytest.raises(DomainError):
            exactla.hermite_row_basis(rows, 2)
    (row,) = exactla.hermite_row_basis([(True, False)], 2)
    assert row == (1, 0) and all(type(x) is int for x in row)


def _unimodular_mix(rng, rows):
    """The rows after random swaps, sign changes and row additions."""
    rows = [list(r) for r in rows]
    for _ in range(rng.randint(1, 8)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        op = rng.randrange(3)
        if op == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            rows[i] = [-x for x in rows[i]]
        elif i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


def test_hermite_basis_invariant_under_unimodular_row_operations():
    rng = random.Random(1875)
    for _ in range(300):
        n, k = rng.randint(1, 5), rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        H = exactla.hermite_row_basis(rows, n)
        assert exactla.hermite_row_basis(_unimodular_mix(rng, rows), n) == H, rows
        # Reduced form: positive pivots, entries above each in [0, pivot).
        for r, row in enumerate(H):
            c = next(j for j, x in enumerate(row) if x)
            assert row[c] > 0
            assert all(0 <= H[i][c] < row[c] for i in range(r))


def test_kernel_is_saturated_annihilator():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        ker = kernel_basis(A)
        for v in ker:
            for i in range(k):
                assert sum(A[i][j] * v[j] for j in range(n)) == 0
        assert len(ker) == n - exactla.integer_rank(A)
        # Saturated: the maximal minors of the kernel basis are coprime.
        if ker:
            assert minor_gcd(ker, len(ker)) == 1


def test_solve_integer():
    P = [[2, 0], [0, 3]]
    Q = [[4], [9]]
    X = exactla.solve_integer(P, Q)
    assert matmul(P, X) == Q
    assert exactla.solve_integer(P, [[3], [9]]) is None


def test_solve_integer_random():
    """Q = P X is solved by an X' with P X' = Q; after one entry of Q
    moves by 1, any answer given still solves it."""
    rng = random.Random(1872)
    unsolved = 0
    for _ in range(300):
        r, c, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        P = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        Q = matmul(P, [[rng.randint(-5, 5) for _ in range(k)] for _ in range(c)])
        X = exactla.solve_integer(P, Q)
        assert X is not None and len(X) == c and matmul(P, X) == Q, (P, Q)
        Q[rng.randrange(r)][rng.randrange(k)] += rng.choice((-1, 1))
        X = exactla.solve_integer(P, Q)
        if X is None:
            unsolved += 1
        else:
            assert matmul(P, X) == Q, (P, Q)
    assert 50 <= unsolved <= 250, unsolved
