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

from . import exactla, laurent
from .errors import DomainError
from .fpgroup import FoxMatrix
from .laurent import CycloElement, LaurentPoly


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


# Laplace, not `exactla.bareiss`: on the 1x1..4x4 minors `order_k` meets in
# the survey benchmark it measured 3-4x faster (zeros skipped, no division).
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


def _exact_div(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    q = laurent.exact_div(p, d)
    if q is None:  # fraction-free quotients are exact by construction
        raise RuntimeError("inexact division during elimination")
    return q


def _poly_size(e: LaurentPoly):
    return None if e.is_zero() else (e.total_degree_spread(), len(e.terms))


def rank_over_fractions(F: FoxMatrix) -> int:
    """Rank of the Fox matrix over the fraction field of Z[H], by
    `exactla.bareiss` with lowest-total-degree pivots."""
    return exactla.bareiss([list(row) for row in F.entries], _exact_div, _poly_size)[0]


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


def _cyclo_size(e: CycloElement):
    return None if e.is_zero() else 0


def _pivot_divider():
    """A `div` for `exactla.bareiss` over Q(zeta_m): every division of a step
    is by the same previous pivot, so invert it once and multiply."""
    pivot = inverse = None

    def div(e: CycloElement, d: CycloElement) -> CycloElement:
        nonlocal pivot, inverse
        if d is not pivot:
            pivot, inverse = d, d.inverse()
        return e * inverse

    return div


def cv_dim(F: FoxMatrix, rho: CharacterPoint, kmax: int | None = None) -> CvReport:
    """dim H_1(X; C_rho) and the jump-locus memberships at rho.

    For a nontrivial character, dim = s - 1 - rank of the evaluated Fox
    matrix over the cyclotomic field, computed by `exactla.bareiss`.  It
    divides only from its second step on, by the previous pivot, which
    `_pivot_divider` inverts once per step: a matrix of rank r costs at most
    r - 1 inversions, and 1- and 2-row matrices none.  The trivial character
    gives dim = b1 directly.  Membership in V_k is read off as dim >= k:
    all (s-k)-minors of the evaluated matrix vanish exactly when its rank
    is below s - k, that is, when s - 1 - rank >= k.
    """
    if len(rho.rho) != F.nvars:
        raise DomainError("character has %d entries but b1 = %d" % (len(rho.rho), F.nvars))
    if kmax is not None and kmax < 0:
        raise DomainError("kmax must be nonnegative")
    if rho.is_trivial():
        dim = F.abelianization.b1
    else:
        ev = _evaluate_matrix(F, rho)
        dim = F.cols - 1 - exactla.bareiss(ev, _pivot_divider(), _cyclo_size)[0]
    top = kmax if kmax is not None else max(dim, 0)
    return CvReport(dim, tuple(dim >= k for k in range(1, top + 1)))
