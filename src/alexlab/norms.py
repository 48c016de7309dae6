"""Alexander norm, support polytopes, and the McMullen-inequality harness.

Thurston norm values are user-supplied data (a file of classes with their
norms and fibered flags); nothing here computes them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import lcm

from ._value import Value
from .errors import DomainError, LimitError, ParseError
from .laurent import LaurentPoly

SUPPORT_POLYTOPE_MAX_RANK = 4


class CohomologyClass(Value):
    __slots__ = _fields = ("phi",)

    @classmethod
    def of(cls, values) -> "CohomologyClass":
        """The class with the given int entries; any other raises DomainError."""
        values = tuple(values)
        if not all(isinstance(x, int) for x in values):
            raise DomainError("cohomology class entries must be integers, got %r" % (values,))
        return cls(tuple(map(int, values)))


class NormBall(Value):
    """Vertex set of a centrally symmetric polytope; `role` records whether
    it is the support-difference polytope or a dual norm ball."""

    __slots__ = _fields = ("vertices", "role")

    def __init__(self, vertices, role="support"):
        Value.__init__(self, vertices, role)


class FiberedDatum(Value):
    __slots__ = _fields = ("phi", "thurston", "fibered")


class McMullenEntry(Value):
    """One datum's class (a tuple of ints), Thurston value and fibered flag,
    its Alexander norm, and `status` PASS or FAIL with the reason."""

    __slots__ = _fields = ("phi", "thurston", "fibered", "alexander", "status", "reason")


class McMullenReport(Value):
    __slots__ = _fields = ("delta", "entries", "all_pass")


def alexander_norm(delta: LaurentPoly, phi: CohomologyClass) -> int:
    """Width of the Newton polytope of delta in the direction phi;
    0 for the zero polynomial by convention."""
    if len(phi.phi) != delta.nvars:
        raise DomainError("class length does not match variable count")
    if delta.is_zero():
        return 0
    vals = [sum(p * e for p, e in zip(phi.phi, exp)) for exp in delta.support()]
    return max(vals) - min(vals)


# -- exact convex hull (vertex enumeration) -----------------------------------


def _phase1_feasible(cols, rhs) -> bool:
    """Is {x >= 0 : A x = b} nonempty?  A given by integer columns.

    Phase-1 simplex with Bland's rule, the artificial variables n..n+m-1
    the starting basis, on a fraction-free tableau (Edmonds' integer-
    preserving pivots, Bareiss's exact-division rule): the true tableau
    is T / D for the current pivot D > 0, so a pivot p > 0 updates each
    other row to (p row - row[e] prow) // D, exactly, and D becomes p.
    The reduced costs are one more such row; an artificial leaves the
    basis for good, so only structural columns are kept.  Feasible iff
    the objective entry reaches 0."""
    m, n = len(rhs), len(cols)
    rows = []
    for i, b in enumerate(rhs):
        row = [col[i] for col in cols] + [b]
        rows.append([-x for x in row] if b < 0 else row)
    cost = [-sum(col) for col in zip(*rows)]
    basis = list(range(n, n + m))
    D = 1
    while cost[-1]:
        e = next((j for j in range(n) if cost[j] < 0), None)
        if e is None:
            return False
        # ratio test b_i / a_i by cross-multiplication, ties to the least basic index
        r = None
        for i, row in enumerate(rows):
            a = row[e]
            if a > 0:
                if r is not None:
                    lhs, rhs_r = row[-1] * rows[r][e], rows[r][-1] * a
                    if lhs > rhs_r or (lhs == rhs_r and basis[i] > basis[r]):
                        continue
                r = i
        if r is None:
            return False  # unbounded; cannot happen for phase 1 but keeps us safe
        prow = rows[r]
        p = prow[e]
        for i, row in enumerate(rows):
            if i != r:
                f = row[e]
                rows[i] = [(p * x - f * y) // D for x, y in zip(row, prow)]
        f = cost[e]
        cost = [(p * x - f * y) // D for x, y in zip(cost, prow)]
        D = p
        basis[r] = e
    return True


def in_convex_hull(point, points) -> bool:
    """Exact membership of `point` in the convex hull of `points`; int or
    Fraction coordinates, scaled by one common denominator first."""
    pts = [tuple(q) for q in points]
    if not pts:
        return False
    point = tuple(point)
    L = lcm(*(x.denominator for q in pts + [point] for x in q))
    if L != 1:
        point = tuple(x.numerator * (L // x.denominator) for x in point)
        pts = [tuple(x.numerator * (L // x.denominator) for x in q) for q in pts]
    cols = [q + (1,) for q in pts]
    return _phase1_feasible(cols, point + (1,))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain(pts) -> list[tuple]:
    """One half of Andrew's monotone chain: pop while the turn is not
    strictly to the left, so points on an edge are dropped."""
    out = []
    for p in pts:
        while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
            out.pop()
        out.append(p)
    return out


def hull_vertices(points) -> list[tuple]:
    """Vertex subset of a finite point set, sorted: p is a vertex iff it is
    not in the hull of the others, so points on an edge are not vertices.

    With at most two coordinates no LP is solved: the extreme points with
    zero or one coordinate, Andrew's monotone chain with two (exact cross
    products on ints and Fractions).  With more, one phase-1 LP per point
    against the vertices found so far and the points not yet tested; a
    point shown interior is dropped from the later LPs, which is sound
    because the remaining points always include every vertex."""
    pts = sorted(set(tuple(x) for x in points))
    if not pts or len(pts[0]) < 2:
        return pts[:1] + pts[1:][-1:]
    if len(pts[0]) == 2:
        keep = set(_chain(pts)) | set(_chain(reversed(pts)))
        return [p for p in pts if p in keep]
    out = []
    for i, p in enumerate(pts):
        if not in_convex_hull(p, out + pts[i + 1 :]):
            out.append(p)
    return out


def support_polytope(delta: LaurentPoly) -> NormBall:
    """Vertices of the difference hull of the support, exact rationals.

    conv(S - S) = conv S + conv(-S), whose vertices are differences of
    vertices of conv S, so only the hull vertices of S are paired.  Both
    hulls are taken by `hull_vertices`, so with at most two variables no
    LP is solved."""
    if delta.is_zero():
        raise DomainError("support polytope of the zero polynomial")
    if delta.nvars > SUPPORT_POLYTOPE_MAX_RANK:
        raise LimitError(
            "support_polytope supports rank <= %d (have %d)"
            % (SUPPORT_POLYTOPE_MAX_RANK, delta.nvars)
        )
    vs = hull_vertices(delta.support())
    diffs = {tuple(a - b for a, b in zip(h, g)) for h, g in iproduct(vs, vs)}
    verts = hull_vertices(diffs)
    return NormBall(tuple(tuple(Fraction(x) for x in v) for v in verts), "support")


# -- McMullen harness ----------------------------------------------------------


def mcmullen_check(delta: LaurentPoly, data) -> McMullenReport:
    """Check the user-supplied Thurston values against the Alexander norm:
    the norm may never exceed the Thurston norm, with equality on fibered
    classes.  Only meaningful with b1 >= 2, rejected otherwise."""
    if delta.nvars < 2:
        raise DomainError("McMullen comparison requires b1 >= 2")
    entries = []
    for d in data:
        a = alexander_norm(delta, d.phi)
        if a > d.thurston:
            status, reason = "FAIL", "alexander %d > thurston %d" % (a, d.thurston)
        elif d.fibered and a != d.thurston:
            status, reason = "FAIL", "fibered class: alexander %d != thurston %d" % (a, d.thurston)
        else:
            status, reason = "PASS", "ok"
        entries.append(McMullenEntry(d.phi.phi, d.thurston, d.fibered, a, status, reason))
    all_pass = all(e.status == "PASS" for e in entries)
    return McMullenReport(delta, tuple(entries), all_pass)


def parse_thurston_data(text: str) -> list[FiberedDatum]:
    """Lines of `phi <int> ...  thurston <int>  fibered <0|1>`; `#` comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] != "phi":
                raise ValueError("expected 'phi'")
            i = 1
            phi = []
            while i < len(toks):
                try:
                    phi.append(int(toks[i]))
                except ValueError:
                    break
                i += 1
            if not phi:
                raise ValueError("empty phi")
            if i == len(toks) or toks[i] != "thurston":
                raise ValueError("expected 'thurston'")
            thurston = int(toks[i + 1])
            if thurston < 0:
                raise ValueError("thurston value must be nonnegative")
            if toks[i + 2] != "fibered" or toks[i + 3] not in ("0", "1"):
                raise ValueError("expected 'fibered 0|1'")
            if i + 4 != len(toks):
                raise ValueError("trailing tokens")
            out.append(FiberedDatum(CohomologyClass.of(phi), thurston, toks[i + 3] == "1"))
        except (ValueError, IndexError) as exc:
            raise ParseError("thurston data line %d: %s" % (lineno, exc))
    return out
