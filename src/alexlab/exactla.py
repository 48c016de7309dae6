"""Exact linear algebra on integer matrices given as lists of rows: Smith
normal form, Hermite form, lattice saturation, integer solutions of P X = Q,
and `bareiss`, the one fraction-free elimination behind both polynomial
ranks in `alexinv` (over Frac Z[H], and at a torsion character, over Z[t]).
A rank over Frac Z[H] of a matrix with at most one row or column needs
none: `alexinv._frac_rank` reads it off the nonzero entries.  The integer
rank streams rows into an echelon basis instead and stops at full column
rank.  A lattice has no class here: it is its Hermite row basis, and
`saturate(rows, n)` takes any generating rows of one.  The sum and the
intersection of two lattices have no function either: `torusgeo.intersect`
reads both off one Hermite form of a stacked basis.

Apart from `bareiss`, which works in place over any exact domain, everything
here works with plain Python integers (arbitrary precision), leaves its
arguments as they are, and is pure.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .errors import DomainError


def bareiss(m, div, size):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) in place on
    the list of row lists `m`, over any exact integral domain.

    `size(e)` is None for a zero entry and otherwise a key: each step pivots
    on the least key in the remaining submatrix, ties going to the first in
    row-major order.  Step 0 divides by nothing; every later step divides by
    the previous pivot with `div`, a division that is exact there.  Returns
    (rank, minor): minor is the determinant of the input's submatrix on the
    pivot rows and columns, each taken in increasing order (the integer 1
    for rank 0), so it is the determinant when m is square of full rank.
    """
    nrows, ncols = len(m), len(m[0]) if m else 0
    rows, cols = list(range(nrows)), list(range(ncols))
    prev, r = 1, 0
    while r < min(nrows, ncols):
        best = None
        for i in range(r, nrows):
            for j in range(r, ncols):
                key = size(m[i][j])
                if key is not None and (best is None or key < best[0]):
                    best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        _swap_rows(m, r, pi)
        _swap_rows(rows, r, pi)
        if pj != r:
            _swap_cols(m, r, pj)
            _swap_rows(cols, r, pj)
        top = m[r]
        piv = top[r]
        for row in m[r + 1 :]:
            a = row[r]
            for j in range(r + 1, ncols):
                e = row[j] * piv - a * top[j]
                row[j] = div(e, prev) if r else e
        prev, r = piv, r + 1
    inversions = sum(x > y for p in (rows[:r], cols[:r]) for x, y in combinations(p, 2))
    return r, -prev if inversions % 2 else prev


def integer_rank(rows) -> int:
    """Rank over the rationals of the matrix with the given rows, an
    iterable of integer sequences of one length (a row read whose length
    differs from the first's raises DomainError).  The rows stream into a
    fraction-free echelon basis: each is reduced by the basis rows at their
    pivot columns (row * pivot - entry * basis row), then divided by its
    content and kept when nonzero, its first nonzero column its pivot.  The
    pass stops once the rank reaches the column count and pulls no further
    row, so a tall matrix of full column rank (the difference vectors of a
    large support) costs a few rows."""
    basis, ncols = [], None
    for row in rows:
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise DomainError("ragged rows")
        for pc, b in basis:
            x = row[pc]
            if x:
                p = b[pc]
                row = [p * y - x * z for y, z in zip(row, b)]
        g = gcd(*row)
        if g:
            row = [y // g for y in row] if g != 1 else row
            basis.append((next(j for j, y in enumerate(row) if y), row))
            if len(basis) == ncols:
                break
    return len(basis)


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m, dst, src, c):
    """row dst += c * row src"""
    m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]


def _add_col(m, dst, src, c):
    for row in m:
        row[dst] += c * row[src]


def smith_normal_form(rows):
    """Smith normal form (U, d, V) of the matrix A with the given rows, by
    elementary row/column reduction: U and V are unimodular row lists and
    d the list of the min(rows, cols) diagonal entries, nonnegative, each
    dividing the next, so that U A V is diagonal with diagonal d.  Ragged
    rows raise DomainError.

    Pivot selection: smallest nonzero absolute value in the remaining
    submatrix, ties broken by (row, col) order, so the transforms are
    reproducible.
    """
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    if any(len(r) != nc for r in m):
        raise DomainError("ragged rows")
    u = _identity_rows(nr)
    v = _identity_rows(nc)

    t = 0
    while t < min(nr, nc):
        # Smallest-magnitude nonzero pivot in m[t:, t:].
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                e = m[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            _swap_rows(m, t, pi)
            _swap_rows(u, t, pi)
        if pj != t:
            _swap_cols(m, t, pj)
            _swap_cols(v, t, pj)

        dirty = False
        for i in range(t + 1, nr):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                if q:
                    _add_row(m, i, t, -q)
                    _add_row(u, i, t, -q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                if q:
                    _add_col(m, j, t, -q)
                    _add_col(v, j, t, -q)
                if m[t][j]:
                    dirty = True
        if dirty:
            continue  # a smaller pivot appeared; redo this step

        # Pivot must divide every remaining entry for the divisibility chain.
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % m[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(m, t, offender, 1)
            _add_row(u, t, offender, 1)
            continue
        t += 1

    # Sign fix: diagonal nonnegative via row scaling by -1 (det flips, still unimodular).
    for i in range(min(nr, nc)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]

    return u, [m[i][i] for i in range(min(nr, nc))], v


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(A, B) -> list[list[int]]:
    """The product of row lists A and B, B with one row per column of A."""
    cols = list(zip(*B))
    return [[sum(x * y for x, y in zip(a, c)) for c in cols] for a in A]


def hermite_row_basis(rows, ambient: int) -> list[tuple[int, ...]]:
    """Canonical (row-style HNF) basis of the lattice generated by `rows`.

    Pivots positive, entries above each pivot reduced into [0, pivot),
    pivot by pivot from the top.  Two generating sets span the same lattice
    iff their Hermite bases are equal, which is how lattice equality is
    tested.  A row whose length is not `ambient`, or with an entry that is
    not an int, raises DomainError; a bool is taken as its int.
    """
    m = []
    for r in rows:
        if len(r) != ambient:
            raise DomainError("row length does not match ambient rank")
        if not all(isinstance(x, int) for x in r):
            raise DomainError("lattice entries must be integers, got %r" % (r,))
        if any(r):
            m.append(list(map(int, r)))
    pivots = []
    top = 0
    for col in range(ambient):
        # xgcd-style elimination below the current top row.
        piv = None
        for i in range(top, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        for i in range(top + 1, len(m)):
            while m[i][col] != 0:
                if abs(m[i][col]) < abs(m[top][col]):
                    m[top], m[i] = m[i], m[top]
                q = m[i][col] // m[top][col]
                m[i] = [x - q * y for x, y in zip(m[i], m[top])]
        if m[top][col] < 0:
            m[top] = [-x for x in m[top]]
        pivots.append((top, col))
        top += 1
    m = m[:top]
    # Reduce entries above pivots for canonicity, top-down: a later pivot
    # row is zero left of its pivot, so it leaves columns already reduced
    # as they are.
    for r, c in pivots:
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
    return [tuple(r) for r in m]


def saturate(rows, ambient: int) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of the smallest lattice containing the rows (any
    generating set) whose quotient of Z^n is torsion-free, n = ambient:
    QL meet Z^n for the lattice L they span.

    A Hermite basis B of L with every pivot 1 is the answer: entries above
    a pivot 1 are reduced into [0, 1), so unit vectors in the other columns
    extend B to a unimodular matrix.  Otherwise one Smith form U B V = D
    gives it: B = U^-1 D V^-1, so row i of U B is d_i times row i of V^-1,
    and the first rank(B) rows of the unimodular V^-1 are a basis of
    QL meet Z^n.
    """
    B = hermite_row_basis(rows, ambient)
    if all(next(filter(None, b)) == 1 for b in B):
        return tuple(B)
    U, d, _ = smith_normal_form(B)
    rows = [[x // di for x in row] for di, row in zip(d, _matmul(U, B)) if di]
    return tuple(hermite_row_basis(rows, ambient))


def solve_integer(P, Q):
    """An integer solution X of P X = Q, or None when none exists; P, Q and
    X are row lists.  With U P V = diag(d) of rank r, X = V Y for the Y
    with d_i Y_i = (U Q)_i, which needs d_i to divide row i of U Q for
    i < r and that row to vanish for i >= r."""
    if len(P) != len(Q):
        raise DomainError("row mismatch in solve_integer")
    U, d, V = smith_normal_form(P)
    r = sum(1 for x in d if x)
    UQ = _matmul(U, Q)
    if any(map(any, UQ[r:])) or any(x % di for di, row in zip(d, UQ[:r]) for x in row):
        return None
    zero = [0] * (len(Q[0]) if Q else 0)
    Y = [[x // di for x in row] for di, row in zip(d, UQ[:r])] + [zero] * (len(V) - r)
    return _matmul(V, Y)

