"""Order polynomials of the Fox matrix, thickness, and twisted-homology
dimensions at torsion characters.

Convention: Delta^k is the gcd of all (s-k) x (s-k) minors of the Fox matrix
(s = generator count), i.e. the orders of the relative Alexander module.
This reproduces the classical knot polynomials and the torus-bundle example
with monodromy trace 3.

Every rank and order is read off one reduction of the Fox matrix, made once
per matrix and kept on it (`reduction`): unit entries +-t^a are cleared as
pivots (Crowell-Fox), which keeps every Delta^k and lowers both ranks by
the pivot count, and the rest splits into the diagonal blocks of its
nonzero pattern, as the free product of the factors of a connected sum
does.  Ranks add over the blocks, Delta^{k0} is the product of the blocks'
first orders, and Delta^k above k0 is the gcd over k_1 + .. + k_n = k of
the products of the blocks' Delta^{k_b}, since gcd(I J) = gcd(I) gcd(J) in
the UFD Z[H].

A block of r rows and r + 1 columns of rank r needs one maximal minor for
both its rank and Delta_b^1, by Fox's fundamental formula (Crowell & Fox,
ch. VII): w - 1 = sum_c (dw/dx_c)(x_c - 1) in Z[F], and a relator w maps
to 1 in H, so every row of the Fox matrix satisfies
sum_c F_rc (x_c - 1) = 0, x_c the image of the c-th generator.  Clearing
a unit pivot keeps that identity on the rows left, over the columns left:
row r less F_rj u^-1 times the pivot row i loses its column-j term, since
the pivot row's own identity has u (x_j - 1) there.  A block keeps it, as
its rows are zero off its columns.  So (x_c - 1)_c lies in the block's
kernel over Frac Z[H]; at rank r that kernel is spanned by the signed
maximal minors mu_c, whence mu_c (x_p - 1) = +-mu_p (x_c - 1) for any
column p.  With x_p != 1, mu_p != 0 exactly when the rank is r, and
gcd_c mu_c = mu_p gcd_c (x_c - 1) / (x_p - 1) (`_fox_order`), with no gcd
call and no elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd as igcd

from . import exactla, laurent
from ._value import Value
from .errors import DomainError, LimitError
from .fpgroup import FoxMatrix
from .laurent import LaurentPoly

# The largest k of a listing with one value per k (`test --kmax`, `sum
# --kmax`, `cv --k`): its size is linear in an argv number of a few bytes,
# and from the generator count on every Delta^k is 1 and every V_k flag False.
MAX_LISTED_K = 10_000


def check_listed_k(kmax: int) -> None:
    """DomainError below 0, LimitError above `MAX_LISTED_K`; every listing
    calls this before any work."""
    if kmax < 0:
        raise DomainError("kmax must be nonnegative")
    if kmax > MAX_LISTED_K:
        raise LimitError("kmax %d is over the listing bound %d" % (kmax, MAX_LISTED_K))


class OrderSequence(Value):
    """Delta^0 .. Delta^kmax plus k0, the first index with Delta^k != 0."""

    __slots__ = _fields = ("kmax", "orders", "k0")


class CharacterPoint(Value):
    """A torsion character of H = Z^b1: rationals mod 1, one per variable.
    Its order m and its numerators a_i = m rho_i are computed once per
    point, when it is built."""

    _fields = ("rho",)
    __slots__ = _fields + ("order", "numerators")

    def __init__(self, rho):
        rho = tuple(Fraction(x) % 1 for x in rho)
        m = laurent.character_order(rho)
        Value.__init__(self, rho, m, laurent._character_numerators(rho, m))

    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.rho)


class CvReport(Value):
    """dim H_1 with coefficients twisted by the character, plus membership
    flags for the jump loci V_k, k = 1..len(memberships).

    The dimension comes from the rank of the Fox matrix at the character.
    Each membership flag is read off as dim >= k, which is exact: all
    (s-k)-minors of the evaluated matrix vanish iff its rank is below s-k."""

    __slots__ = _fields = ("dim", "memberships")


# -- the reduction ----------------------------------------------------------------


class _Block:
    """One diagonal block M_b of a `FoxReduction`: rows and columns of the
    shared reduced matrix, with its rank over Frac Z[H] and its orders
    Delta_b^j (gcd of the (s_b - j)-minors) memoized as they are asked for.

    `images`, when given, holds the abelianized image in Z^b1 of each
    column's generator, indexed as the columns of `entries` are.  A block
    of r >= 1 rows and r + 1 columns with a nonzero image then reads its
    rank and Delta_b^1 off one maximal minor (`_fox_minor`)."""

    def __init__(self, entries, nvars: int, rows, cols, images=None):
        self.entries, self.nvars = entries, nvars
        self.rows, self.cols = rows, cols
        self.images = images
        self._rank = None
        self._minor = None  # (p, mu_p) when the rank came from one minor
        self._orders: dict[int, LaurentPoly] = {}

    def rank(self) -> int:
        if self._rank is None:
            self._minor = _fox_minor(self)
            if self._minor is not None:
                self._rank = len(self.rows)
            else:
                sub = [[self.entries[i][j] for j in self.cols] for i in self.rows]
                self._rank = _frac_rank(sub)
        return self._rank

    def k0(self) -> int:
        return len(self.cols) - self.rank()

    def order(self, j: int) -> LaurentPoly:
        """Delta_b^j for j >= k0, the gcd accumulator seeded with the
        memoized Delta_b^{j-1}: every (s_b - j + 1)-minor lies in the ideal
        of the (s_b - j)-minors, so Delta_b^j divides Delta_b^{j-1}.  When
        the rank came from one minor, Delta_b^1 is `_fox_order` of it."""
        g = self._orders.get(j)
        if g is None:
            seed = self._orders.get(j - 1, LaurentPoly.zero(self.nvars))
            size = len(self.cols) - j
            if size <= 0:
                g = LaurentPoly.one(self.nvars)
            elif j == 1 and self._minor is not None:
                g = _fox_order(self)
            else:
                g = _minors_gcd(self.entries, self.rows, self.cols, size, seed)
            self._orders[j] = g
        return g


class FoxReduction(Value):
    """F ~ diag(1, .., 1, M_1, .., M_n) over Z[H] (Crowell & Fox,
    *Introduction to Knot Theory*, ch. VII).

    `pivots` unit entries +-t^a were cleared: scaling the pivot row by the
    inverse unit and clearing the pivot column and row by row and column
    operations gives M ~ diag(1, M'), and the (s-k)-minors of M generate the
    same ideal as the (s-1-k)-minors of M', so every Delta^k keeps its index.
    What remains splits into `blocks`, the connected components of its
    nonzero pattern; zero rows are dropped, and a column without a nonzero
    entry is a block with no rows (k0 = 1, Delta^1 = 1).  Both ranks (over
    Frac Z[H], and at a torsion character, where a unit becomes a root of
    unity) are the pivot count plus the blocks' ranks.  `orders` memoizes
    each Delta^k of F as `order_k` computes it, and `newton_dims` the
    Newton dimension of each as `order_newton_dim` computes it."""

    _fields = ("pivots", "blocks")
    __slots__ = _fields + ("orders", "newton_dims")

    def __init__(self, pivots, blocks):
        Value.__init__(self, pivots, blocks, {}, {})

    @property
    def width(self) -> int:
        """Column count of diag(M_1, .., M_n): s - pivots."""
        return sum(len(b.cols) for b in self.blocks)


def reduction(F: FoxMatrix) -> FoxReduction:
    """The reduction of F, computed on first use and kept on F."""
    if F.reduced is None:
        return F._remember("reduced", _reduce(F))
    return F.reduced


def _reduce(F: FoxMatrix) -> FoxReduction:
    """Clear unit pivots by least Markowitz cost (r - 1)(c - 1), r and c the
    nonzero counts of the pivot's row and column, ties to the first in
    row-major order; then split the rest into blocks.  Without a unit entry
    the blocks index F.entries themselves, uncopied."""
    entries = F.entries
    row_nz = [{j for j, e in enumerate(row) if not e.is_zero()} for row in entries]
    units = {(i, j) for i, js in enumerate(row_nz) for j in js if entries[i][j].is_unit()}
    live_cols = set(range(F.cols))
    if units:
        entries = [list(row) for row in entries]
        col_nz = [set() for _ in live_cols]
        for i, js in enumerate(row_nz):
            for j in js:
                col_nz[j].add(i)
        while units:
            i, j = min(
                units, key=lambda ij: ((len(row_nz[ij[0]]) - 1) * (len(col_nz[ij[1]]) - 1), ij)
            )
            _clear_unit(entries, i, j, row_nz, col_nz, units)
            live_cols.discard(j)
    pivots = F.cols - len(live_cols)
    images = F.abelianization.images
    col_rows: dict[int, list[int]] = {j: [] for j in sorted(live_cols)}
    for i, js in enumerate(row_nz):
        for j in js:
            col_rows[j].append(i)
    blocks, seen = [], set()
    for j0 in col_rows:
        if j0 in seen:
            continue
        seen.add(j0)
        rows, cols, stack = set(), [j0], [j0]
        while stack:
            for i in col_rows[stack.pop()]:
                if i not in rows:
                    rows.add(i)
                    fresh = row_nz[i] - seen
                    seen |= fresh
                    cols += fresh
                    stack += fresh
        blocks.append(_Block(entries, F.nvars, tuple(sorted(rows)), tuple(sorted(cols)), images))
    return FoxReduction(pivots, tuple(blocks))


def _clear_unit(m, i, j, row_nz, col_nz, units):
    """Eliminate with the unit m[i][j] in place: m[r][c] -= m[r][j] u^-1 m[i][c]
    for the other nonzeros of its column and row, then retire row i and
    column j from the nonzero sets and the unit set."""
    inv = laurent._unit_inverse(m[i][j])
    prow = {c: m[i][c] * inv for c in row_nz[i] if c != j}
    for r in col_nz[j]:
        if r == i:
            continue
        f = m[r][j]
        for c, q in prow.items():
            e = m[r][c] - f * q
            m[r][c] = e
            if not e.is_zero():
                row_nz[r].add(c)
                col_nz[c].add(r)
            else:
                row_nz[r].discard(c)
                col_nz[c].discard(r)
            if e.is_unit():
                units.add((r, c))
            else:
                units.discard((r, c))
        row_nz[r].discard(j)
        units.discard((r, j))
    for c in row_nz[i]:
        col_nz[c].discard(i)
        units.discard((i, c))
    row_nz[i] = set()
    col_nz[j] = set()


# -- per-block kernels ---------------------------------------------------------------


# Laplace, not `exactla.bareiss`: on every minor the blocks meet in one round
# of each benchmark pool (seed 0; 1548 minors of sizes 1-4 on survey, 659 on
# orders_multivar, 96 of size 1 on cli_sidepaths), Laplace took 15.5, 15.1
# and 0.04 ms and per-minor bareiss 44.6, 52.2 and 1.3 ms (Xeon, Python
# 3.11.7): zeros are skipped and nothing is divided.
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
                term = e * det(rs[1:], cs[:i] + cs[i + 1 :])
                total = total + term if sign > 0 else total - term
            sign = -sign
        return total

    return det(tuple(rows), tuple(cols))


def _minors_gcd(entries, rows, cols, size: int, g: LaurentPoly) -> LaurentPoly:
    """gcd of g (canonical) and the size x size minors on the given rows and
    columns, enumerated in lexicographic order, with early exit at a unit."""
    one = LaurentPoly.one(g.nvars)
    if g == one:
        return g
    for rs in combinations(rows, size):
        for cs in combinations(cols, size):
            m = _minor_det(entries, rs, cs)
            if m.is_zero():
                continue
            g = laurent.gcd(g, m)
            if g == one:
                return g
    return g.canonical()


def _fox_minor(b: _Block):
    """(p, mu_p) for a block of r >= 1 rows and r + 1 columns: p the column
    of least l1 norm among those with a nonzero image, mu_p the maximal
    minor on the other columns, when it is nonzero; then the block has
    rank r.  None for any other shape, when every image is 0 or absent, or
    when mu_p = 0 (the rank is then below r, and `_frac_rank` finds it).

    By Fox's fundamental formula, sum_c F_rc (x_c - 1) = 0 on every row of
    the Fox matrix, and on every row of a block (see the module
    docstring).  So the column vector (x_c - 1) lies in the kernel of the
    block, which for rank r is spanned by the signed maximal minors; with
    x_p != 1, mu_p != 0 exactly when the rank is r."""
    rows, cols, images = b.rows, b.cols, b.images
    if images is None or not rows or len(cols) != len(rows) + 1:
        return None
    nonzero = [(sum(map(abs, images[c])), i) for i, c in enumerate(cols) if any(images[c])]
    if not nonzero:
        return None
    p = min(nonzero)[1]
    mu = _minor_det(b.entries, rows, cols[:p] + cols[p + 1 :])
    return None if mu.is_zero() else (cols[p], mu)


def _fox_order(b: _Block) -> LaurentPoly:
    """Delta_b^1 of a block whose rank r came from `_fox_minor`: the gcd of
    its maximal minors mu_c, read off the one minor mu_p.

    The kernel relation gives mu_c (x_p - 1) = +-mu_p (x_c - 1) for every
    column c, so gcd_c mu_c = mu_p g / (x_p - 1) up to a unit, with g =
    gcd_c (x_c - 1).  For x_c = t^a, a = j w with w primitive, t^a - 1 is
    the product of the Phi_d(t^w) over d | j, each irreducible in Z[H], and
    those of non-parallel w are not associate.  So g = t^(k w) - 1 when
    every nonzero image is a multiple j_c w of one primitive w (k the gcd
    of the j_c), and g = 1 otherwise; the quotient h = (x_p - 1) / g is
    then 1 + t^(k w) + .. + t^((j_p/k - 1) k w), or x_p - 1 itself.  When h
    is a unit (j_p = k, e.g. a 1 x 2 block whose two images agree up to
    sign), Delta_b^1 is mu_p itself and nothing is divided."""
    p, mu = b._minor
    nvars, a = b.nvars, b.images[p]
    content = igcd(*a)
    w = [x // content for x in a]
    i = next(i for i, x in enumerate(w) if x)
    k = content
    for y in map(b.images.__getitem__, b.cols):
        if not any(y):
            continue
        j = y[i] // w[i]
        if any(j * x != v for x, v in zip(w, y)):
            h = LaurentPoly(nvars, [(a, 1), ((0,) * nvars, -1)])
            return _exact_div(mu, h).canonical()
        k = igcd(k, j)
    if k == content:
        return mu.canonical()
    h = LaurentPoly._from_runs(nvars, [((0,) * nvars, [k * x for x in w], content // k, 1)])
    return _exact_div(mu, h).canonical()


def _exact_div(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    q = laurent.exact_div(p, d)
    if q is None:  # fraction-free quotients are exact by construction
        raise RuntimeError("inexact division during elimination")
    return q


def _poly_size(e: LaurentPoly):
    return None if e.is_zero() else (e.total_degree_spread(), e.term_count())


def _frac_rank(m) -> int:
    """Rank over the fraction field of Z[H], by `exactla.bareiss` with
    lowest-total-degree pivots.  A matrix with at most one row or at most
    one column has rank 1 when some entry is nonzero and 0 otherwise, so
    it is read off without the pivot scan, which would key every entry."""
    if len(m) <= 1 or len(m[0]) <= 1:
        return int(any(not e.is_zero() for row in m for e in row))
    return exactla.bareiss(m, _exact_div, _poly_size)[0]


# -- orders and ranks over the fraction field ------------------------------------------


def order_k(F: FoxMatrix, k: int) -> LaurentPoly:
    """gcd of all (s-k) x (s-k) minors of the Fox matrix.

    The result is canonical (see `LaurentPoly.canonical`), so callers need
    not normalize it again.  Size <= 0 gives 1; an empty minor set gives 0.
    Read off the blocks of `reduction(F)`: with k_b = s_b - m_b, a nonzero
    minor of diag(M_1, .., M_n) is a product of m_b-minors of the blocks,
    and gcd(I J) = gcd(I) gcd(J) in the UFD Z[H], so
    Delta^k = gcd over k_1 + .. + k_n = k of prod Delta_b^{k_b}.
    At k = k0 the only nonzero term is prod Delta_b^{k0_b}: no gcd across
    blocks.  Above k0 a dynamic program over the blocks takes the gcd.
    Each Delta^k is computed once per matrix and kept on its reduction.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    R = reduction(F)
    g = R.orders.get(k)
    if g is None:
        g = R.orders[k] = _order_k(R, k, F.nvars)
    return g


def _order_k(R: FoxReduction, k: int, nvars: int) -> LaurentPoly:
    if k >= R.width:
        return LaurentPoly.one(nvars)
    excess = k - sum(b.k0() for b in R.blocks)
    if excess < 0:
        return LaurentPoly.zero(nvars)
    # acc[e]: gcd over the blocks so far of the products whose indices
    # exceed those blocks' k0_b by e in total.
    acc = None
    for b in R.blocks:
        k0b = b.k0()
        opts = [b.order(k0b + x) for x in range(min(excess, len(b.cols) - k0b) + 1)]
        if acc is None:
            acc = opts
            continue
        nxt = [None] * min(excess + 1, len(acc) + len(opts) - 1)
        for e, g in enumerate(acc):
            for x, h in enumerate(opts[: len(nxt) - e]):
                p = g * h  # canonical, as both factors are
                nxt[e + x] = p if nxt[e + x] is None else laurent.gcd(nxt[e + x], p)
        acc = nxt
    return acc[excess]


def order_newton_dim(F: FoxMatrix, k: int) -> int:
    """Dimension of the Newton polytope of Delta^k (nonzero, so k >= k0),
    computed once per matrix and kept on its reduction next to Delta^k."""
    R = reduction(F)
    nd = R.newton_dims.get(k)
    if nd is None:
        delta = R.orders.get(k)
        if delta is None:
            delta = order_k(F, k)
        nd = R.newton_dims[k] = laurent.newton_dim(delta)
    return nd


def rank_over_fractions(F: FoxMatrix) -> int:
    """Rank of the Fox matrix over the fraction field of Z[H]: the pivot
    count of `reduction(F)` plus its blocks' ranks."""
    R = reduction(F)
    return R.pivots + sum(b.rank() for b in R.blocks)


def first_order(F: FoxMatrix) -> tuple[int, LaurentPoly]:
    """k0 = s - rank over the fraction field, and Delta^{k0} (nonzero and
    canonical, as `order_k` returns it)."""
    k0 = F.cols - rank_over_fractions(F)
    return k0, order_k(F, k0)


def order_sequence(F: FoxMatrix, kmax: int) -> OrderSequence:
    check_listed_k(kmax)
    k0 = F.cols - rank_over_fractions(F)
    orders = tuple(order_k(F, k) for k in range(kmax + 1))
    return OrderSequence(kmax, orders, k0)


def thickness(F: FoxMatrix) -> int:
    """Dimension of the Newton polytope of the first nonvanishing order."""
    return order_newton_dim(F, first_order(F)[0])


# -- twisted homology at a character ---------------------------------------------


# Largest character order for `cv_dim`.  Phi_m is one linear pass per
# squarefree divisor (trefoil: 3 ms cold at m = 9240), but the rank at the
# character multiplies minors of degree about k * phi(m) on a block of rank
# k: on a dense 4 x 4 block (the `cv_dense4_*` probes of tools/probes.py)
# that takes 0.07 s at m = 600, 0.4 s at m = 1260 and 2.5 s at m = 2310,
# growing about as m^3, so the bound stays.
CV_MAX_ORDER = 5000


def _character_rank(b: _Block, rho: CharacterPoint) -> int:
    """Rank of the block at the character rho of order m, by the same
    `exactla.bareiss` call as `_frac_rank`, over Z[t] instead of Q(zeta_m).

    Each entry is reduced mod Phi_m at the character's numerators, i.e.
    evaluated exactly into Z[zeta_m], and lifted to the
    polynomial of degree < phi(m) in Z[t] with those coefficients, which
    takes the entry's value at t = zeta_m.  `size` keeps the degree-first
    pivot order but refuses an entry that vanishes at zeta_m, i.e. is zero
    mod Phi_m (a nonzero entry of degree spread below phi(m) cannot be).
    So every pivot is a nonzero polynomial, the divisions are exact in Z[t]
    (Sylvester's identity), and after r steps each remaining entry is a
    bordered minor: the last pivot, the r x r minor on the pivot rows and
    columns, times an entry of the Schur complement of that minor.
    Evaluation at zeta_m is a ring map and no pivot vanishes there, so the
    rank at zeta_m is r plus the rank of that complement there: the
    elimination goes on exactly while some remaining entry is nonzero at
    zeta_m, and stops at the rank.

    A block with at most one row or column has rank 1 exactly when some
    entry is nonzero at zeta_m, so it is read off entry by entry, up to the
    first entry that `laurent._vanishes_at_character` finds nonzero there,
    with no residue, no lift and no elimination.
    """
    m, nums = rho.order, rho.numerators
    if len(b.rows) <= 1 or len(b.cols) <= 1:
        shifts = [m // q for q in laurent._prime_factors(m)]
        vanishes = laurent._vanishes_at_character
        entries = (b.entries[i][j] for i in b.rows for j in b.cols)
        return int(any(not e.is_zero() and not vanishes(e, nums, m, shifts) for e in entries))
    residue = laurent._cyclotomic_residue
    phi = laurent.euler_phi(m)

    def size(e: LaurentPoly):
        key = _poly_size(e)
        if key and key[0] >= phi and not any(residue(e, (1,), m)):
            return None
        return key

    lift = laurent._from_dense
    lifts = [[lift(residue(b.entries[i][j], nums, m)) for j in b.cols] for i in b.rows]
    return exactla.bareiss(lifts, _exact_div, size)[0]


def cv_dim(F: FoxMatrix, rho: CharacterPoint, kmax: int | None = None) -> CvReport:
    """dim H_1(X; C_rho) and the jump-locus memberships at rho.

    For a nontrivial character, dim = s - 1 - rank of the Fox matrix at
    rho: the pivot count of `reduction(F)` plus the `_character_rank` of
    each block, a fraction-free elimination over Z[t] with no division in
    Q(zeta_m).  The trivial character gives dim = b1 directly.  Membership
    in V_k is read off as dim >= k: all (s-k)-minors of the evaluated matrix
    vanish exactly when its rank is below s - k, that is, when
    s - 1 - rank >= k.  A character of order above `CV_MAX_ORDER` raises
    `LimitError`.
    """
    if len(rho.rho) != F.nvars:
        raise DomainError("character has %d entries but b1 = %d" % (len(rho.rho), F.nvars))
    if kmax is not None:
        check_listed_k(kmax)
    if rho.order > CV_MAX_ORDER:
        msg = "cv supports character orders up to %d (have %d)"
        raise LimitError(msg % (CV_MAX_ORDER, rho.order))
    if rho.is_trivial():
        dim = F.abelianization.b1
    else:
        R = reduction(F)
        rank = R.pivots + sum(_character_rank(b, rho) for b in R.blocks)
        dim = F.cols - 1 - rank
    top = kmax if kmax is not None else max(dim, 0)
    return CvReport(dim, tuple(dim >= k for k in range(1, top + 1)))
