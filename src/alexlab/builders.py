"""Constructors for the named corpus families: torus bundles over the
circle, torus knot groups, and free-by-cyclic groups.
"""

from __future__ import annotations


from ._value import Value
from .errors import DomainError
from .fpgroup import GroupPresentation, _reduced_word


class MonodromyMatrix(Value):
    """2x2 integer matrix with determinant +-1."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries):
        (a, b), (c, d) = entries
        if abs(a * d - b * c) != 1:
            raise DomainError("monodromy matrix must have determinant +-1")
        Value.__init__(self, entries)

    @classmethod
    def of(cls, a, b, c, d) -> "MonodromyMatrix":
        """The matrix ((a, b), (c, d)) of ints; any other entry raises DomainError."""
        if not all(isinstance(x, int) for x in (a, b, c, d)):
            raise DomainError("matrix entries must be integers, got %r" % ((a, b, c, d),))
        return cls(((int(a), int(b)), (int(c), int(d))))

    @property
    def det(self) -> int:
        (a, b), (c, d) = self.entries
        return a * d - b * c

    @property
    def trace(self) -> int:
        return self.entries[0][0] + self.entries[1][1]


def torus_bundle(A: MonodromyMatrix) -> GroupPresentation:
    """<x, y, t | [x,y], t x t^-1 (x^a11 y^a21)^-1, t y t^-1 (x^a12 y^a22)^-1>
    (column-action convention: conjugation by t reads off the columns)."""
    (a11, a12), (a21, a22) = A.entries
    x, y, t = 0, 1, 2
    comm = [(x, 1), (y, 1), (x, -1), (y, -1)]
    r1 = [(t, 1), (x, 1), (t, -1), (y, -a21), (x, -a11)]
    r2 = [(t, 1), (y, 1), (t, -1), (y, -a22), (x, -a12)]
    return GroupPresentation(("x", "y", "t"), (comm, r1, r2))


def torus_knot(p: int, q: int) -> GroupPresentation:
    """<a, b | a^p b^-q>, the (p, q) torus knot group for coprime p, q."""
    if p < 1 or q < 1:
        raise DomainError("torus knot parameters must be >= 1")
    return GroupPresentation(("a", "b"), ([(0, p), (1, -q)],))


def free_by_cyclic(images) -> GroupPresentation:
    """<x1..xm, t | t x_i t^-1 phi(x_i)^-1> for phi given by its images.

    The images are words, each a sequence of (generator index, exponent)
    int pairs over indices 0..m-1.  Whether they define an automorphism of
    the free group is not verified (a word-problem instance); the caller
    answers for that.
    """
    images = list(images)
    m = t = len(images)
    relators = []
    for i, w in enumerate(images):
        w = _reduced_word(w, m)  # refuses any index outside 0..m-1, t's index m too
        # t x_i t^-1 w^-1, which the constructor reduces
        relators.append([(t, 1), (i, 1), (t, -1)] + [(g, -e) for g, e in reversed(w)])
    names = tuple("x%d" % (i + 1) for i in range(m)) + ("t",)
    return GroupPresentation(names, relators)
