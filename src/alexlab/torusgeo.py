"""Torsion-translated subtori of the character torus.

A subtorus is encoded by its saturated lattice of exponent equations,
stored as that lattice's Hermite row basis, `exactla.saturate(rows, n)`:
T = {z : z^u = 1 for all u in the lattice}, translated by a torsion point
exp(2*pi*i*q) with q rational.  Products and intersections of subtori then
reduce to the intersection and the sum of two equation lattices, both read
off one Hermite form (Zassenhaus's sum-intersection trick).
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from . import exactla
from ._value import Value
from .errors import DomainError


class TranslatedTorus(Value):
    """`equations` is the Hermite basis of a saturated lattice, a tuple of
    row tuples; `translate` has entries in [0, 1)."""

    __slots__ = _fields = ("ambient", "equations", "translate")

    @property
    def dim(self) -> int:
        return self.ambient - len(self.equations)


class IntersectionReport(Value):
    """`dim` is meaningful only when `meets`."""

    __slots__ = _fields = ("meets", "dim", "parallel")


def make_torus(n: int, rows, translate) -> TranslatedTorus:
    """Build a translated torus from int exponent equations (dependent rows
    are reduced away) and a rational translate, reduced mod 1; any other
    entry raises DomainError.  The translate must be rational because
    components of jump loci are translated by torsion characters only."""
    equations = exactla.saturate(rows, n)
    translate = tuple(translate)
    if len(translate) != n:
        raise DomainError("translate length does not match ambient rank")
    for x in translate:
        if not isinstance(x, Rational):
            raise DomainError("translate entries must be rational (torsion characters)")
    q = tuple(Fraction(x) % 1 for x in translate)
    return TranslatedTorus(n, equations, q)


def _pairing_integral(basis, q) -> bool:
    for u in basis:
        if sum(Fraction(c) * x for c, x in zip(u, q)) % 1 != 0:
            return False
    return True


def intersect(T1: TranslatedTorus, T2: TranslatedTorus) -> IntersectionReport:
    """Emptiness, dimension and parallelism of rho1*T1 and rho2*T2.

    The cosets meet iff rho1/rho2 lies in the product torus T1*T2, whose
    equation lattice is the (saturated) intersection of the two equation
    lattices; the dimension of a nonempty intersection is
    ambient - rank(L1 + L2).  Both lattices come from one Hermite form of
    the rows (b, b) for b in the basis of L1 and (b, 0) for b in that of
    L2, which span {(u1 + u2, u1) : u1 in L1, u2 in L2}.  Its rows with
    pivots in the first n columns project onto a basis of L1 + L2; the
    others, zero there, span the vectors (0, u1) with u1 = -u2, and their
    last n entries are a basis of L1 meet L2."""
    n = T1.ambient
    if n != T2.ambient:
        raise DomainError("ambient mismatch")
    B1, B2 = T1.equations, T2.equations
    zero = (0,) * n
    H = exactla.hermite_row_basis([(*b, *b) for b in B1] + [(*b, *zero) for b in B2], 2 * n)
    inter = [h[n:] for h in H if not any(h[:n])]
    diff = tuple(a - b for a, b in zip(T1.translate, T2.translate))
    meets = _pairing_integral(inter, diff)
    dim = n - (len(H) - len(inter)) if meets else None
    return IntersectionReport(meets, dim, B1 == B2)
