"""Order polynomials of the Fox matrix, thickness, and twisted-homology
dimensions at torsion characters.

Convention: Delta^k is the gcd of all (s-k) x (s-k) minors of the Fox matrix
(s = generator count), i.e. the orders of the relative Alexander module.
This reproduces the classical knot polynomials and the torus-bundle example
with monodromy trace 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import laurent
from .errors import DomainError
from .fpgroup import FoxMatrix
from .laurent import LaurentPoly


@dataclass(frozen=True)
class OrderSequence:
    """Delta^0 .. Delta^kmax plus k0, the first index with Delta^k != 0."""

    kmax: int
    orders: tuple[LaurentPoly, ...]
    k0: int


@dataclass(frozen=True)
class CharacterPoint:
    """A torsion character of H = Z^b1: rationals mod 1, one per variable."""

    rho: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "rho", tuple(Fraction(x) % 1 for x in self.rho)
        )

    @property
    def order(self) -> int:
        return laurent.character_order(self.rho)

    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.rho)


@dataclass(frozen=True)
class CvReport:
    """dim H_1 with coefficients twisted by the character, plus membership
    flags for the jump loci V_k, k = 1..len(memberships).

    The dimension comes from a rank computation over the cyclotomic field.
    Each membership flag is read off as dim >= k, which is exact: all
    (s-k)-minors of the evaluated matrix vanish iff its rank is below s-k."""

    dim: int
    memberships: tuple[bool, ...]


# -- minors -------------------------------------------------------------------


def _minor_det(entries, rows, cols) -> LaurentPoly:
    """Determinant of the submatrix by Laplace expansion along the first row."""
    nvars = entries[0][0].nvars if entries else 0
    if not rows:
        return LaurentPoly.one(nvars)

    def det(rs, cs):
        if len(rs) == 1:
            return entries[rs[0]][cs[0]]
        r0 = rs[0]
        total = LaurentPoly.zero(nvars)
        sign = 1
        for i, c in enumerate(cs):
            e = entries[r0][c]
            if not e.is_zero():
                sub = det(rs[1:], cs[:i] + cs[i + 1 :])
                term = e * sub
                total = total + (term if sign > 0 else -term)
            sign = -sign
        return total

    return det(tuple(rows), tuple(cols))


def order_k(F: FoxMatrix, k: int) -> LaurentPoly:
    """gcd of all (s-k) x (s-k) minors of the Fox matrix.

    The result is canonical (see `LaurentPoly.canonical`), so callers need
    not normalize it again.  Size <= 0 gives 1; an empty minor set gives 0.
    Minors are enumerated in lexicographic order and the gcd accumulates
    with early exit at a unit.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    s = F.cols
    n = F.nvars
    size = s - k
    if size <= 0:
        return LaurentPoly.one(n)
    if size > F.rows or size > s:
        return LaurentPoly.zero(n)
    one = LaurentPoly.one(n)
    g = LaurentPoly.zero(n)
    for rows in combinations(range(F.rows), size):
        for cols in combinations(range(s), size):
            m = _minor_det(F.entries, rows, cols)
            if m.is_zero():
                continue
            g = laurent.gcd(g, m)
            if g == one:
                return g
    return g.canonical()


# -- rank over the fraction field ----------------------------------------------


def rank_over_fractions(F: FoxMatrix) -> int:
    """Rank of the Fox matrix over the fraction field of Z[H], by exact
    fraction-free (Bareiss) elimination with lowest-total-degree pivots."""
    m = [list(row) for row in F.entries]
    return _poly_matrix_rank(m)


def _poly_matrix_rank(m) -> int:
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    nvars = m[0][0].nvars
    prev = LaurentPoly.one(nvars)
    r = 0
    while r < nrows:
        best = None
        for i in range(r, nrows):
            for j in range(r, ncols):
                e = m[i][j]
                if not e.is_zero():
                    key = (e.total_degree_spread(), len(e.terms), i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        m[r], m[pi] = m[pi], m[r]
        if pj != r:
            for row in m:
                row[r], row[pj] = row[pj], row[r]
        piv = m[r][r]
        for i in range(r + 1, nrows):
            for j in range(r + 1, ncols):
                num = m[i][j] * piv - m[i][r] * m[r][j]
                q = laurent.exact_div(num, prev)
                if q is None:  # fraction-free quotients are exact by construction
                    raise RuntimeError("inexact division during elimination")
                m[i][j] = q
            m[i][r] = LaurentPoly.zero(nvars)
        prev = piv
        r += 1
    return r


def first_order(F: FoxMatrix) -> tuple[int, LaurentPoly]:
    """k0 = s - rank over the fraction field, and Delta^{k0} (nonzero and
    canonical, as `order_k` returns it)."""
    k0 = F.cols - rank_over_fractions(F)
    return k0, order_k(F, k0)


def order_sequence(F: FoxMatrix, kmax: int) -> OrderSequence:
    if kmax < 0:
        raise DomainError("kmax must be nonnegative")
    k0 = F.cols - rank_over_fractions(F)
    orders = tuple(order_k(F, k) for k in range(kmax + 1))
    return OrderSequence(kmax, orders, k0)


def thickness(F: FoxMatrix) -> int:
    """Dimension of the Newton polytope of the first nonvanishing order."""
    _, delta = first_order(F)
    return laurent.newton_dim(delta)


# -- twisted homology at a character ---------------------------------------------


def _evaluate_matrix(F: FoxMatrix, rho: CharacterPoint):
    return [
        [laurent.evaluate_at_character(e, rho.rho) for e in row] for row in F.entries
    ]


def _cyclo_rank(m) -> int:
    if not m or not m[0]:
        return 0
    m = [row[:] for row in m]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inverse()
        for i in range(r + 1, nrows):
            if not m[i][c].is_zero():
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def cv_dim(F: FoxMatrix, rho: CharacterPoint, kmax: int | None = None) -> CvReport:
    """dim H_1(X; C_rho) and the jump-locus memberships at rho.

    For a nontrivial character, dim = s - 1 - rank of the evaluated Fox
    matrix over the cyclotomic field; the trivial character gives dim = b1
    directly.  Membership in V_k is read off as dim >= k: all (s-k)-minors
    of the evaluated matrix vanish exactly when its rank is below s - k,
    that is, when s - 1 - rank >= k.
    """
    if rho.is_trivial():
        dim = F.abelianization.b1
    else:
        dim = F.cols - 1 - _cyclo_rank(_evaluate_matrix(F, rho))
    top = kmax if kmax is not None else max(dim, 0)
    return CvReport(dim, tuple(dim >= k for k in range(1, top + 1)))
