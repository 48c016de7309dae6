import math
import pathlib
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from alexlab import alexinv, exactla, laurent, obstruct
from alexlab.alexinv import (
    CharacterPoint,
    cv_dim,
    first_order,
    order_k,
    order_sequence,
    thickness,
)
from alexlab.errors import DomainError, LimitError
from alexlab.fpgroup import (
    GroupPresentation,
    fox_matrix,
    free_product,
    free_product_many,
    parse_presentation,
    serialize_presentation,
)
from alexlab.laurent import LaurentPoly

from corpus import ALL, FIG8, KLEIN, SOL3, SUM_PAIRS, T34, TREFOIL, WHITEHEAD, ZZ
from cyclo_ref import Cyclo

T = LaurentPoly.variable(1, 0)
ONE = LaurentPoly.one(1)
ONE_2 = LaurentPoly.one(2)


def test_order_k_trefoil():
    F = fox_matrix(TREFOIL.presentation)
    # oracle recorded in the build notes: gcd(1 + t^3, 1 + t^2 + t^4)
    assert order_k(F, 1) == T**2 - T + ONE
    assert order_k(F, 0).is_zero()  # a 1x2 matrix has no 2x2 minors
    assert order_k(F, 2) == ONE  # size-zero minors
    assert order_k(F, 5) == ONE


def test_order_k_z2():
    F = fox_matrix(ZZ.presentation)
    assert order_k(F, 1) == LaurentPoly.one(2)
    assert order_k(F, 0).is_zero()


def test_first_order_examples():
    assert first_order(fox_matrix(SOL3.presentation)) == (
        1,
        T**2 - LaurentPoly.constant(1, 3) * T + ONE,
    )
    assert first_order(fox_matrix(TREFOIL.presentation)) == (1, T**2 - T + ONE)
    F2 = fox_matrix(GroupPresentation(("a", "b"), ()))
    assert first_order(F2) == (2, LaurentPoly.one(2))


def test_order_sequence_vanishing_below_k0():
    for entry in ALL:
        F = fox_matrix(entry.presentation)
        seq = order_sequence(F, 3)
        for k in range(min(seq.k0, 4)):
            assert seq.orders[k].is_zero(), (entry.name, k)
        if seq.k0 <= 3:
            assert not seq.orders[seq.k0].is_zero(), entry.name


def test_thickness_examples():
    assert thickness(fox_matrix(TREFOIL.presentation)) == 1
    assert thickness(fox_matrix(ZZ.presentation)) == 0
    from alexlab.fpgroup import free_product

    double = free_product(FIG8.presentation, FIG8.presentation)
    assert thickness(fox_matrix(double)) == 2


def _permute_generators(p, perm):
    gens = tuple(p.generators[i] for i in perm)
    inv = {old: new for new, old in enumerate(perm)}
    rels = tuple([(inv[g], e) for g, e in r] for r in p.relators)
    return GroupPresentation(gens, rels)


def _inverse(w):
    return tuple((g, -e) for g, e in reversed(w))


def _conjugate_relator(p, idx, by):
    rels = list(p.relators)
    rels[idx] = (by,) + rels[idx] + _inverse((by,))
    return GroupPresentation(p.generators, tuple(rels))


def test_thickness_invariance():
    rng = random.Random(2718)
    for entry in (TREFOIL, SOL3, FIG8, ZZ):
        p = entry.presentation
        base = thickness(fox_matrix(p))
        g = len(p.generators)
        perm = list(range(g))
        rng.shuffle(perm)
        assert thickness(fox_matrix(_permute_generators(p, perm))) == base
        rels = list(p.relators)
        rng.shuffle(rels)
        assert thickness(fox_matrix(GroupPresentation(p.generators, tuple(rels)))) == base
        if p.relators:
            q = _conjugate_relator(p, rng.randrange(len(p.relators)), (rng.randrange(g), 1))
            assert thickness(fox_matrix(q)) == base


# -- twisted homology ------------------------------------------------------------


def test_cv_dim_examples():
    F = fox_matrix(TREFOIL.presentation)
    assert cv_dim(F, CharacterPoint((Fraction(1, 6),))).dim == 1
    assert cv_dim(F, CharacterPoint((Fraction(1, 2),))).dim == 0
    Fz = fox_matrix(ZZ.presentation)
    assert cv_dim(Fz, CharacterPoint((Fraction(1, 2), Fraction(0)))).dim == 0


def test_cv_dim_trivial_character():
    F = fox_matrix(TREFOIL.presentation)
    rep = cv_dim(F, CharacterPoint((Fraction(0),)), kmax=2)
    assert rep.dim == 1
    assert rep.memberships == (True, False)


def test_cv_dim_rejects_character_of_wrong_length():
    # b1 = 1: the trivial character must be checked like any other
    F = fox_matrix(TREFOIL.presentation)
    for rho in ((0, 0), (Fraction(1, 6), 0), ()):
        with pytest.raises(DomainError, match="character has %d entries but b1 = 1" % len(rho)):
            cv_dim(F, CharacterPoint(rho))


def _nontrivial_characters(b1, max_order):
    """All characters with entries of denominator <= max_order, b1 = 1 case,
    plus a sampling grid for higher rank."""
    if b1 == 1:
        seen = set()
        for m in range(2, max_order + 1):
            for j in range(1, m):
                seen.add(Fraction(j, m))
        return [CharacterPoint((x,)) for x in sorted(seen)]
    grid = [Fraction(j, m) for m in (1, 2, 3, 4, 6) for j in range(m)]
    grid = sorted(set(x % 1 for x in grid))
    out = []
    for x in grid:
        for y in grid:
            pt = CharacterPoint((x, y) + (Fraction(0),) * (b1 - 2))
            if not pt.is_trivial():
                out.append(pt)
    return out


def test_hironaka_consistency_trefoil_klein():
    """cv_dim >= 1 iff the first-order polynomial vanishes at the character,
    over all torsion characters of order <= 12 (b1 = 1 corpus knots)."""
    for entry in (TREFOIL, KLEIN):
        F = fox_matrix(entry.presentation)
        _, delta = first_order(F)
        mismatches = 0
        for rho in _nontrivial_characters(1, 12):
            jump = cv_dim(F, rho).dim >= 1
            vanish = Cyclo.at(delta, rho.rho).is_zero()
            if jump != vanish:
                mismatches += 1
        assert mismatches == 0, entry.name


def _evaluate_matrix(F, rho):
    return [[Cyclo.at(e, rho.rho) for e in row] for row in F.entries]


def _cyclo_minor_det(entries, rows, cols) -> Cyclo:
    """Laplace expansion along the first row, in Z[zeta_m]."""
    order = entries[0][0].order

    def det(rs, cs):
        if len(rs) == 1:
            return entries[rs[0]][cs[0]]
        total = Cyclo(order, [0])
        sign = 1
        for i, c in enumerate(cs):
            e = entries[rs[0]][c]
            if not e.is_zero():
                term = e * det(rs[1:], cs[:i] + cs[i + 1 :])
                total = total + (term if sign > 0 else -term)
            sign = -sign
        return total

    return det(tuple(rows), tuple(cols))


def _all_minors_vanish(entries, nrows, ncols, size) -> bool:
    if size <= 0:
        return False  # the empty minor is 1
    if size > nrows or size > ncols:
        return True
    for rows in combinations(range(nrows), size):
        for cols in combinations(range(ncols), size):
            if not _cyclo_minor_det(entries, rows, cols).is_zero():
                return False
    return True


def test_membership_flags_match_rank_route():
    # cv_dim reads memberships off dim >= k, with dim from a rank computation
    # at the character; the reference here decides V_k from the
    # vanishing of all (s-k)-minors (the elementary ideals E_k).  The two
    # independent routes must agree, monotonically, across the corpus.
    for entry in ALL:
        if entry.b1 == 0:
            continue
        F = fox_matrix(entry.presentation)
        for rho in _nontrivial_characters(entry.b1, 6)[:15]:
            rep = cv_dim(F, rho, kmax=3)
            ev = _evaluate_matrix(F, rho)
            for k, flag in enumerate(rep.memberships, start=1):
                assert flag == _all_minors_vanish(ev, F.rows, F.cols, F.cols - k), (
                    entry.name,
                    rho,
                    k,
                )
            for a, b in zip(rep.memberships, rep.memberships[1:]):
                assert a or not b  # monotone decreasing


def test_k0_matches_random_prime_character_rank():
    """Probabilistic witness: rank over the fraction field equals the rank
    of the matrix evaluated at a random character of large prime order."""
    rng = random.Random(53)
    p = 53
    for entry in (TREFOIL, ZZ, SOL3, FIG8):
        F = fox_matrix(entry.presentation)
        b1 = F.abelianization.b1
        rho = CharacterPoint(tuple(Fraction(rng.randrange(1, p), p) for _ in range(b1)))
        rank_at_rho = F.cols - 1 - cv_dim(F, rho).dim
        assert alexinv.rank_over_fractions(F) == rank_at_rho, entry.name


def test_order_k_rejects_negative():
    with pytest.raises(DomainError):
        order_k(fox_matrix(TREFOIL.presentation), -1)


# -- one elimination routine ----------------------------------------------------


def _bareiss_det(entries, rows, cols) -> LaurentPoly:
    sub = [[entries[i][j] for j in cols] for i in rows]
    rank, minor = exactla.bareiss(sub, alexinv._exact_div, alexinv._poly_size)
    return minor if rank == len(rows) else LaurentPoly.zero(entries[0][0].nvars)


def _random_poly(rng, nvars) -> LaurentPoly:
    p = LaurentPoly.zero(nvars)
    for _ in range(rng.randint(1, 3)):
        exps = [rng.randint(-2, 2) for _ in range(nvars)]
        p = p + LaurentPoly.monomial(nvars, exps, rng.choice((-3, -2, -1, 1, 2, 3)))
    return p


def test_bareiss_minor_matches_laplace_on_random_matrices():
    # Sign included: the pivot search swaps rows and columns freely.
    rng = random.Random(1968)
    full_rank = 0
    for _ in range(120):
        nvars, n = rng.randint(1, 3), rng.randint(1, 4)
        entries = [[_random_poly(rng, nvars) for _ in range(n)] for _ in range(n)]
        rows = cols = tuple(range(n))
        expected = alexinv._minor_det(entries, rows, cols)
        full_rank += not expected.is_zero()
        assert _bareiss_det(entries, rows, cols) == expected
    assert full_rank >= 100


def test_frac_rank_of_thin_matrices_matches_bareiss(monkeypatch):
    # 0 x c, 1 x c and r x 1 matrices, about a third of their entries zero,
    # some all zero: rank 1 iff some entry is nonzero, read off with no
    # elimination.  Wider matrices still go through bareiss.
    rng = random.Random(291)
    bareiss, calls = exactla.bareiss, []
    monkeypatch.setattr(exactla, "bareiss", lambda *a: calls.append(a) or bareiss(*a))
    zeros = 0
    for _ in range(300):
        nvars = rng.randint(1, 3)
        shape = rng.choice([(0, rng.randint(0, 4)), (1, rng.randint(0, 5)), (rng.randint(1, 5), 1)])
        zero = LaurentPoly.zero(nvars)
        m = [
            [zero if rng.random() < 0.35 else _random_poly(rng, nvars) for _ in range(shape[1])]
            for _ in range(shape[0])
        ]
        if rng.random() < 0.15:
            m = [[zero for _ in row] for row in m]
        want = bareiss([row[:] for row in m], alexinv._exact_div, alexinv._poly_size)[0]
        zeros += want == 0
        assert alexinv._frac_rank(m) == want, m
    assert not calls and 30 <= zeros <= 270
    m = [[_random_poly(rng, 2) for _ in range(2)] for _ in range(2)]
    assert alexinv._frac_rank(m) == 2 and len(calls) == 1


def test_bareiss_minor_matches_laplace_on_fox_submatrices():
    groups = [e.presentation for e in ALL]
    groups += [free_product(a.presentation, b.presentation) for a, b in SUM_PAIRS]
    checked = 0
    for p in groups:
        F = fox_matrix(p)
        for size in range(1, min(F.rows, F.cols, 4) + 1):
            for rows in combinations(range(F.rows), size):
                for cols in combinations(range(F.cols), size):
                    expected = alexinv._minor_det(F.entries, rows, cols)
                    assert _bareiss_det(F.entries, rows, cols) == expected, (p, rows, cols)
                    checked += not expected.is_zero()
    assert checked >= 100


def test_cv_dim_inverts_nothing_on_one_row(monkeypatch):
    # A 1 x 2 torus-knot block needs no division at all: bareiss divides only
    # from its second step on, and nothing in Q(zeta_m) is ever inverted.
    divisions = []
    exact_div = alexinv._exact_div
    monkeypatch.setattr(
        alexinv, "_exact_div", lambda p, d: divisions.append(d) or exact_div(p, d)
    )
    for entry in (TREFOIL, T34):
        F = fox_matrix(entry.presentation)
        assert (F.rows, F.cols) == (1, 2)
        assert cv_dim(F, CharacterPoint((Fraction(1, 6),))).dim == 1
        assert cv_dim(F, CharacterPoint((Fraction(1, 60),))).dim == 0
    assert divisions == []


def test_cv_dim_makes_no_exact_div(monkeypatch):
    from alexlab.builders import torus_knot

    calls = []
    exact_div = laurent.exact_div
    monkeypatch.setattr(
        laurent, "exact_div", lambda p, d: calls.append(d) or exact_div(p, d)
    )
    for p, q in ((2, 3), (3, 4), (2, 5)):
        F = fox_matrix(torus_knot(p, q))
        for m in (60, 210, 600):
            laurent._cyclotomic_coeffs.cache_clear()
            cv_dim(F, CharacterPoint((Fraction(1, m),)))
    assert calls == []


def test_cv_dim_rejects_large_orders():
    F = fox_matrix(TREFOIL.presentation)
    with pytest.raises(LimitError):
        cv_dim(F, CharacterPoint((Fraction(1, alexinv.CV_MAX_ORDER + 1),)))
    assert cv_dim(F, CharacterPoint((Fraction(1, alexinv.CV_MAX_ORDER),))).dim == 0
    assert cv_dim(F, CharacterPoint((Fraction(0),))).dim == 1


def test_cv_dim_inverts_each_pivot_once(monkeypatch):
    # Each bareiss step of `_character_rank` divides, exactly in Z[t], by the
    # previous pivot only: a block of rank r uses at most r - 1 divisors and
    # inverts nothing.  The reduction leaves these groups only blocks of one
    # row, so the kernel is checked on the whole matrix, of rank >= 3 there.
    divisors = []
    exact_div = alexinv._exact_div
    monkeypatch.setattr(
        alexinv, "_exact_div", lambda p, d: divisors.append(d) or exact_div(p, d)
    )
    groups = [
        free_product(FIG8.presentation, FIG8.presentation),
        free_product(SOL3.presentation, TREFOIL.presentation),
        free_product_many([TREFOIL.presentation] * 4),
    ]
    for p in groups:
        F = fox_matrix(p)
        assert F.rows >= 4
        whole = alexinv._Block(F.entries, F.nvars, tuple(range(F.rows)), tuple(range(F.cols)))
        for m in (5, 7):
            rho = CharacterPoint(tuple(Fraction(i + 1, m) for i in range(F.nvars)))
            rank = _reference_rank(_evaluate_matrix(F, rho))
            assert rank >= 3
            del divisors[:]
            assert alexinv._character_rank(whole, rho) == rank, (p, m)
            assert 1 <= len({id(d) for d in divisors}) <= rank - 1
            assert cv_dim(F, rho).dim == F.cols - 1 - rank, (p, m)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(laurent, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(laurent, name, counted)
    return calls


def test_order_k_of_the_corpus_runs_the_certified_heuristic(monkeypatch):
    # Every order of the corpus and of its free products is computed, and
    # some of its gcds get past the divisibility shortcut.
    heu = _count_calls(monkeypatch, "_heu_gcd")
    groups = [e.presentation for e in ALL]
    groups += [free_product(a.presentation, b.presentation) for a, b in SUM_PAIRS]
    for p in groups:
        F = fox_matrix(p)
        for k in range(F.cols + 1):
            order_k(F, k)
    assert heu


def test_first_order_of_random_five_generator_presentation():
    # Its bivariate minors are coprime, so the first order is 1.
    p = parse_presentation(
        "gens x1 x2 x3 x4 x5\n"
        "rel x5 x2^-1 x5^-1 x3 x1^-1 x4^-1 x2^-1 x4^-1 x3\n"
        "rel x1 x4 x3 x4 x1 x4^2 x1^-1 x4^-1\n"
        "rel x2^2 x3 x5 x1^2 x4 x2\n"
    )
    assert first_order(fox_matrix(p)) == (2, LaurentPoly.one(2))


def test_first_order_of_five_trefoils():
    # Delta^{k0} of a free product is the product of the factors' orders,
    # each in its own variable: 3^5 terms.  (No timing asserted; this was the
    # slowest exact-division row of the benchmark ladder.)
    _, d1 = first_order(fox_matrix(TREFOIL.presentation))
    k0, delta = first_order(fox_matrix(free_product_many([TREFOIL.presentation] * 5)))
    expected = LaurentPoly.one(5)
    for i in range(5):
        rows = [[1 if j == i else 0] for j in range(5)]
        expected = expected * laurent.apply_exponent_map(d1, rows, 5)
    assert k0 == 5
    assert len(delta.terms) == 243
    assert delta == expected.canonical()


# -- the block / unit-pivot reduction ----------------------------------------------


def _reference_order_k(F, k) -> LaurentPoly:
    """`order_k` as it was before the reduction: the gcd of every (s-k)-minor
    of the whole matrix, enumerated lexicographically."""
    n = F.nvars
    size = F.cols - k
    if size <= 0:
        return LaurentPoly.one(n)
    g = LaurentPoly.zero(n)
    for rows in combinations(range(F.rows), size):
        for cols in combinations(range(F.cols), size):
            m = alexinv._minor_det(F.entries, rows, cols)
            if not m.is_zero():
                g = laurent.gcd(g, m)
    return g.canonical()


def _reference_rank(ev) -> int:
    """Rank over Q(zeta_m) with no division: the largest size of a nonzero
    minor of the evaluated matrix."""
    nrows, ncols = len(ev), len(ev[0]) if ev else 0
    size = min(nrows, ncols)
    while size and _all_minors_vanish(ev, nrows, ncols, size):
        size -= 1
    return size


def _reference_cv_dim(F, rho) -> int:
    return F.cols - 1 - _reference_rank(_evaluate_matrix(F, rho))


def _assert_reduction_matches_reference(F, label):
    for k in range(5):
        assert order_k(F, k) == _reference_order_k(F, k), (label, k)
    if F.nvars:
        for m in (5, 7):
            rho = CharacterPoint(tuple(Fraction(i + 1, m) for i in range(F.nvars)))
            assert cv_dim(F, rho).dim == _reference_cv_dim(F, rho), (label, m)


def test_reduction_matches_whole_matrix_on_corpus_and_sums():
    for entry in ALL:
        _assert_reduction_matches_reference(fox_matrix(entry.presentation), entry.name)
    for a, b in SUM_PAIRS:
        F = fox_matrix(free_product(a.presentation, b.presentation))
        _assert_reduction_matches_reference(F, (a.name, b.name))


def _dense_entry(rng) -> LaurentPoly:
    """Four terms, exponents in [-3, 3]^2, coefficients in {+-1, +-2}."""
    p = LaurentPoly.zero(2)
    for _ in range(4):
        exps = [rng.randint(-3, 3), rng.randint(-3, 3)]
        p = p + LaurentPoly.monomial(2, exps, rng.choice((-2, -1, 1, 2)))
    return p


@pytest.mark.parametrize("m", (5, 7, 12, 60, 210))
def test_character_rank_of_dense_blocks(m):
    # Dense bivariate blocks at the character (1/m, 7/m), each last row
    # either random, or t1 row_0 + t2^-1 row_1, or Phi_m(t1) row + t1^2 row_0.
    # In the last case, with no more rows than columns, the rank at the
    # character is below the rank over Frac Z[H].  In both dependent cases
    # the lifts to Z[t] stay independent, so the elimination meets nonzero
    # entries that vanish at zeta_m.
    rng = random.Random(m)
    rho = CharacterPoint((Fraction(1, m), Fraction(7, m)))
    t1, t2_inv = LaurentPoly.variable(2, 0), LaurentPoly.monomial(2, (0, -1))
    phi_t1 = laurent.apply_exponent_map(laurent.cyclotomic_polynomial(m), [[1], [0]], 2)
    for nrows, ncols in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 3), (4, 4)):
        for kind in ("random", "combination", "phi"):
            rows = [[_dense_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
            if kind == "combination":
                rows[-1] = [t1 * a + t2_inv * b for a, b in zip(rows[0], rows[1])]
            elif kind == "phi":
                rows[-1] = [phi_t1 * c + t1 * t1 * a for c, a in zip(rows[-1], rows[0])]
            block = alexinv._Block(rows, 2, tuple(range(nrows)), tuple(range(ncols)))
            ev = [[Cyclo.at(e, rho.rho) for e in row] for row in rows]
            rank = alexinv._character_rank(block, rho)
            assert rank == _reference_rank(ev), (nrows, ncols, kind)
            if kind == "phi" and nrows <= ncols:
                assert rank < block.rank(), (nrows, ncols)
    # Phi_m = t1^(phi/2) t1^(phi/2) + (Phi_m - t1^phi) as a 2 x 2 determinant
    # of entries of degree below phi(m): after the first pivot, the entry
    # left is +-Phi_m itself, of degree spread exactly phi(m).
    half = LaurentPoly.monomial(2, (laurent.euler_phi(m) // 2, 0))
    rows = [[half, -LaurentPoly.one(2)], [phi_t1 - half * half, half]]
    block = alexinv._Block(rows, 2, (0, 1), (0, 1))
    assert (alexinv._character_rank(block, rho), block.rank()) == (1, 2)


@st.composite
def _presentations(draw):
    g = draw(st.integers(1, 4))
    syllable = st.tuples(st.integers(0, g - 1), st.sampled_from((-2, -1, 1, 2)))
    words = st.lists(syllable, min_size=1, max_size=6)
    rels = draw(st.lists(words, min_size=0, max_size=g))
    return GroupPresentation(tuple("x%d" % i for i in range(g)), tuple(rels))


@settings(max_examples=150, deadline=None)
@given(_presentations())
def test_reduction_matches_whole_matrix_on_random_presentations(p):
    F = fox_matrix(p)
    if F.nvars <= 3:
        _assert_reduction_matches_reference(F, p)


# -- thin blocks at a character ---------------------------------------------------

THIN_ORDERS = (5, 7, 60, 210, 600)
_BAREISS = exactla.bareiss


def _bareiss_character_rank(b, rho) -> int:
    """`_character_rank` by its lift-and-`bareiss` path alone, for any shape."""
    m, nums = rho.order, rho.numerators
    phi, residue = laurent.euler_phi(m), laurent._cyclotomic_residue

    def size(e):
        key = alexinv._poly_size(e)
        if key and key[0] >= phi and not any(residue(e, (1,), m)):
            return None
        return key

    lifts = [
        [laurent._from_dense(residue(b.entries[i][j], nums, m)) for j in b.cols] for i in b.rows
    ]
    return _BAREISS(lifts, alexinv._exact_div, size)[0]


def _thin_numerator(m, draw_from):
    """A numerator for denominator m: a multiple of m/d for a divisor
    d <= 12 of m (where the Phi_d factors of Fox entries vanish), or any."""
    d = draw_from([d for d in range(1, 13) if m % d == 0] + [m])
    return m // d * draw_from(range(d))


def _check_thin_ranks(F, nums, m, monkeypatch) -> list[tuple[int, int]]:
    """Assert that every block of F's reduction with at most one row or
    column, and F itself when that thin, has the bareiss path's rank at the
    character nums/m, with no `bareiss` call; (rank, rows) of each."""
    rho = CharacterPoint(tuple(Fraction(a, m) for a in nums))
    if rho.is_trivial():
        return []
    blocks = [b for b in alexinv.reduction(F).blocks if min(len(b.rows), len(b.cols)) <= 1]
    if min(F.rows, F.cols) <= 1:
        blocks.append(alexinv._Block(F.entries, F.nvars, tuple(range(F.rows)), tuple(range(F.cols))))
    seen = []
    for b in blocks:
        monkeypatch.setattr(exactla, "bareiss", None)  # any call fails
        rank = alexinv._character_rank(b, rho)
        monkeypatch.undo()
        assert rank == _bareiss_character_rank(b, rho), (F, rho, b.rows, b.cols)
        seen.append((rank, len(b.rows)))
    return seen


def test_thin_block_character_rank_matches_bareiss_on_corpus(monkeypatch):
    # Rank 0 (every entry vanishes at the character, or no rows) must turn
    # up as well as rank 1.
    rng = random.Random(600)
    groups = [e.presentation for e in ALL]
    groups += [free_product(a.presentation, b.presentation) for a, b in SUM_PAIRS]
    seen = []
    for p in groups:
        F = fox_matrix(p)
        for m in THIN_ORDERS:
            for _ in range(3 * bool(F.nvars)):
                nums = [_thin_numerator(m, rng.choice) for _ in range(F.nvars)]
                seen += _check_thin_ranks(F, nums, m, monkeypatch)
    assert min(seen.count((1, 1)), seen.count((0, 1)), seen.count((0, 0))) >= 10, seen


@settings(max_examples=100, deadline=None)
@given(_presentations(), st.sampled_from(THIN_ORDERS), st.data())
def test_thin_block_character_rank_matches_bareiss_on_random_presentations(p, m, data):
    F = fox_matrix(p)
    nums = [_thin_numerator(m, lambda xs: data.draw(st.sampled_from(xs))) for _ in range(F.nvars)]
    with pytest.MonkeyPatch.context() as mp:
        _check_thin_ranks(F, nums, m, mp)


def test_reduction_blocks_and_pivots():
    # fig8*fig8: one unit pivot per factor, each leaving a 1x1 block and a
    # generator in no relator (a 0-row block: k0 = 1, Delta = 1).
    R = alexinv.reduction(fox_matrix(free_product(FIG8.presentation, FIG8.presentation)))
    assert R.pivots == 2
    assert [(len(b.rows), len(b.cols)) for b in R.blocks] == [(1, 1), (0, 1), (1, 1), (0, 1)]
    # A free product of torus knots has no unit entry: one 1x2 block each,
    # indexing the Fox matrix itself.
    F = fox_matrix(free_product_many([TREFOIL.presentation] * 3))
    R = alexinv.reduction(F)
    assert R.pivots == 0
    assert [(b.rows, b.cols) for b in R.blocks] == [((0,), (0, 1)), ((1,), (2, 3)), ((2,), (4, 5))]
    assert all(b.entries is F.entries for b in R.blocks)
    assert alexinv.reduction(F) is R


def _wirtinger_torus_2(n: int) -> GroupPresentation:
    """Wirtinger presentation of the torus knot T(2, n), n odd: one
    generator per arc, relators x_{i+1} x_i x_{i+1}^-1 x_{i+2}^-1."""
    rels = tuple(
        [((i + 1) % n, 1), (i, 1), ((i + 1) % n, -1), ((i + 2) % n, -1)] for i in range(n)
    )
    return GroupPresentation(tuple("x%d" % i for i in range(n)), rels)


def test_wirtinger_torus_knot_2_21():
    # 21 x 21; the whole-matrix minors gcd did not finish in 120 s.
    F = fox_matrix(_wirtinger_torus_2(21))
    expected = LaurentPoly(1, [((i,), (-1) ** i) for i in range(21)])
    assert first_order(F) == (1, expected)
    assert order_k(F, 2) == ONE


def _add_generator(p: GroupPresentation, w) -> GroupPresentation:
    """Tietze move: a new generator y with the relator y w^-1."""
    y = len(p.generators)
    name = "y"
    while name in p.generators:
        name += "_"
    return GroupPresentation(p.generators + (name,), p.relators + (((y, 1),) + _inverse(w),))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([e for e in ALL if e.presentation.generators]),
    st.lists(st.tuples(st.integers(0, 10), st.sampled_from((-2, -1, 1, 2))), max_size=6),
)
def test_tietze_new_generator_keeps_orders(entry, pairs):
    p = entry.presentation
    g = len(p.generators)
    q = _add_generator(p, [(i % g, e) for i, e in pairs])
    F, G = fox_matrix(p), fox_matrix(q)
    b1 = F.nvars
    assert G.nvars == b1
    k0 = first_order(F)[0]
    assert first_order(G)[0] == k0
    # The bases of H read off the two Smith forms may differ by an
    # automorphism of Z^b1: express the new one in the old.
    rows = obstruct._inclusion_rows(G.abelianization.images[:g], F.abelianization.images, b1, b1)
    for k in range(4):
        moved = laurent.apply_exponent_map(order_k(G, k), rows, b1).canonical()
        assert moved == order_k(F, k), (entry.name, k)


TIETZE_MOVES = ("product", "invert", "rotate", "conjugate", "new generator")


def _tietze(p: GroupPresentation, move, i, j, e, pairs) -> GroupPresentation:
    """One Tietze move on p: append r_i r_j, invert r_i, cyclically permute
    r_i, conjugate r_i by a generator, or add a generator y with the
    relator y w^-1.  Indices are taken mod the current counts; with no
    relator to act on, the move adds a generator."""
    g, rels = len(p.generators), list(p.relators)
    if move == "new generator" or not rels:
        return _add_generator(p, [(x % g, d) for x, d in pairs] if g else [])
    i %= len(rels)
    r = rels[i]
    if move == "product":
        rels.append(r + rels[j % len(rels)])
    elif move == "invert":
        rels[i] = _inverse(r)
    elif move == "rotate":
        k = j % (len(r) + 1)
        rels[i] = r[k:] + r[:k]
    else:
        x = ((j % g, e),)
        rels[i] = x + r + _inverse(x)
    return GroupPresentation(p.generators, tuple(rels))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL),
    st.lists(
        st.tuples(
            st.sampled_from(TIETZE_MOVES),
            st.integers(0, 10),
            st.integers(0, 10),
            st.sampled_from((-2, -1, 1, 2)),
            st.lists(st.tuples(st.integers(0, 10), st.sampled_from((-2, -1, 1, 2))), max_size=4),
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.one_of(st.just(0), st.integers(1, 6)), min_size=3, max_size=3),
)
# q's basis of H differs from p's here, and rho = (2/m, 0) has another
# cv_dim on q than M^T rho.
@example(WHITEHEAD, [("new generator", 2, 0, -1, [(1, -1), (0, 1)])], [2, 0, 0])
def test_tietze_sequences_keep_invariants(entry, moves, nums):
    p = q = entry.presentation
    for move in moves:
        q = _tietze(q, *move)
    F, G = fox_matrix(p), fox_matrix(q)
    b1 = F.nvars
    assert (G.nvars, G.abelianization.torsion) == (b1, F.abelianization.torsion)
    assert first_order(G)[0] == first_order(F)[0]
    assert thickness(G) == thickness(F)
    for test in (obstruct.kahler_test, obstruct.qp_test):
        assert test(q).verdict == test(p).verdict, (entry.name, moves)
    # Generators are only appended, so p's come first in q.  M (the rows)
    # sends q's basis of H to p's; a character rho of p's is M^T rho on q's.
    g = len(p.generators)
    rows = obstruct._inclusion_rows(G.abelianization.images[:g], F.abelianization.images, b1, b1)
    for k in range(4):
        moved = laurent.apply_exponent_map(order_k(G, k), rows, b1).canonical()
        assert moved == order_k(F, k), (entry.name, moves, k)
    for m in (5, 7) if b1 else ():
        rho = [Fraction(x, m) for x in nums[:b1]]
        pulled = [sum(row[j] * r for row, r in zip(rows, rho)) for j in range(b1)]
        want = cv_dim(F, CharacterPoint(rho)).dim
        assert cv_dim(G, CharacterPoint(pulled)).dim == want, (entry.name, moves, rho)


def _fresh(p: GroupPresentation) -> GroupPresentation:
    """A new presentation object equal to p, with no analysis kept on it."""
    return GroupPresentation(p.generators, p.relators)


def test_reduction_runs_once_per_fox_matrix(monkeypatch):
    reduced = []
    reduce = alexinv._reduce

    def counted(F):
        reduced.append(F)
        return reduce(F)

    monkeypatch.setattr(alexinv, "_reduce", counted)
    for entry in ALL:
        p = _fresh(entry.presentation)
        del reduced[:]
        obstruct.kahler_test(p)
        assert len(reduced) == 1, entry.name
        # Every later analysis of the same object reuses that reduction.
        obstruct.qp_test(p)
        F = fox_matrix(p)
        first_order(F)
        cv_dim(F, CharacterPoint((Fraction(1, 5),) * F.nvars))
        assert len(reduced) == 1, entry.name
    # Equal presentations parsed separately share nothing.
    text = serialize_presentation(TREFOIL.presentation)
    p, q = parse_presentation(text), parse_presentation(text)
    assert p == q
    del reduced[:]
    obstruct.kahler_test(p)
    obstruct.kahler_test(q)
    assert len(reduced) == 2 and reduced[0] is not reduced[1]
    del reduced[:]
    obstruct.connected_sum_report([_fresh(e.presentation) for e in (TREFOIL, FIG8, SOL3)])
    assert len(reduced) == 4  # the product and each factor
    assert len({id(F) for F in reduced}) == 4


def test_kahler_then_qp_compute_each_rank_and_order_once(monkeypatch):
    # Every block's rank starts at `_fox_minor`, once, and goes on to
    # `_frac_rank` exactly when that gives no minor.
    minors, ranks, orders = [], [], []
    fox_minor, frac_rank, order = alexinv._fox_minor, alexinv._frac_rank, alexinv._order_k

    def counted_minor(b):
        minors.append(fox_minor(b))
        return minors[-1]

    def counted_rank(m):
        ranks.append(m)
        return frac_rank(m)

    def counted_order(R, k, nvars):
        orders.append(k)
        return order(R, k, nvars)

    monkeypatch.setattr(alexinv, "_fox_minor", counted_minor)
    monkeypatch.setattr(alexinv, "_frac_rank", counted_rank)
    monkeypatch.setattr(alexinv, "_order_k", counted_order)
    for entry in ALL:
        p = _fresh(entry.presentation)
        del minors[:], ranks[:], orders[:]
        k0 = obstruct.kahler_test(p).k0
        obstruct.qp_test(p)
        R = alexinv.reduction(fox_matrix(p))
        assert len(minors) == len(R.blocks), entry.name
        assert len(ranks) == minors.count(None), entry.name
        assert orders == list(range(k0, max(k0, obstruct.DEFAULT_KMAX) + 1)), entry.name


def test_kahler_qp_and_sum_take_each_newton_dim_once(monkeypatch):
    # The Newton dimension of each Delta^k is kept on the reduction next to
    # Delta^k, so the two tests, the thickness and a connected sum of the
    # same presentation objects read it once per k.
    dims = []
    newton_dim = laurent.newton_dim
    monkeypatch.setattr(laurent, "newton_dim", lambda p: dims.append(p) or newton_dim(p))
    for entry in ALL:
        p = _fresh(entry.presentation)
        del dims[:]
        rep, qp = obstruct.kahler_test(p), obstruct.qp_test(p)
        assert [f.newton_dim for f in qp.per_k] == [f.newton_dim for f in rep.per_k]
        assert alexinv.thickness(fox_matrix(p)) == qp.thickness == rep.thickness
        assert len(dims) == len(range(rep.k0, max(rep.k0, obstruct.DEFAULT_KMAX) + 1)), entry.name
    for a, b in SUM_PAIRS:
        ps = [_fresh(a.presentation), _fresh(b.presentation)]
        for q in ps:
            obstruct.kahler_test(q)
        del dims[:]
        rep = obstruct.connected_sum_report(ps)
        qp_ks = max(rep.qp.k0, obstruct.DEFAULT_KMAX) + 1 - rep.qp.k0
        assert len(dims) == qp_ks, (a.name, b.name)


# -- one maximal minor per deficiency-one block -------------------------------------


def _orders_pool():
    """The presentations of the seed-0 `orders_multivar` pool (bench/workloads.py)."""
    bench = str(pathlib.Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return [parse_presentation(r["spec"]["fp"]) for r in workloads.orders_pool(0)]


# Rank-deficient deficiency-one blocks: w w has the Fox row 2 (dw/dx), and
# every dw/dx here is a non-unit, so no pivot hides the dependence.  The
# third has a column of image 0 and keeps rank 2 of 3 columns.
DEFICIENT_FP = (
    "gens a b c\nrel a^2 b^2 c^2\nrel a^2 b^2 c^2 a^2 b^2 c^2\n",
    "gens a b c d\nrel a^2 b^-2 c^2 d^2\nrel a^2 b^-2 c^2 d^2 a^2 b^-2 c^2 d^2\nrel c^2 d^-2 c^-2 d^2\n",
)
ZERO_COLUMN_FP = (
    "gens x0 x1 x2\nrel x1^-3\nrel x2^2 x1^-2 x0 x2^2 x0\n",
    "gens x0 x1 x2\nrel x0^-2 x1^2 x0^2\nrel x1^2 x2^2 x0^2\n",
)


def _fox_block_paths(F) -> list[str]:
    """Assert on every block of F's reduction with r >= 1 rows and r + 1
    columns that the rank is `_frac_rank`'s and Delta_b^1 the gcd of all
    maximal minors, and name the path each took: the one-minor path with
    a unit divisor, a geometric series or a binomial x_p - 1 (the images
    not parallel), with a column of image 0 too, or today's path for a
    rank-deficient block or one whose images are all 0."""
    paths = []
    for b in alexinv.reduction(F).blocks:
        r = len(b.rows)
        if not r or len(b.cols) != r + 1:
            continue
        rank = alexinv._frac_rank([[b.entries[i][j] for j in b.cols] for i in b.rows])
        minor = alexinv._fox_minor(b)
        assert b.rank() == rank, (F, b.rows, b.cols)
        images = [b.images[c] for c in b.cols]
        if not any(map(any, images)) or rank < r:
            assert minor is None
            paths.append("all images 0" if rank == r else "rank-deficient")
            continue
        assert minor is not None
        want = alexinv._minors_gcd(b.entries, b.rows, b.cols, r, LaurentPoly.zero(b.nvars))
        assert b.order(1) == want == alexinv._fox_order(b), (F, b.rows, b.cols)
        direction = {tuple(x // math.gcd(*y) for x in y) for y in images if any(y)}
        multiples = [math.gcd(*y) for y in images if any(y)]
        if len({tuple(abs(x) for x in d) for d in direction}) > 1:
            paths.append("binomial")
        elif min(multiples) != math.gcd(*multiples):
            paths.append("geometric")
        else:
            paths.append("unit")
        if not all(map(any, images)):
            paths.append("image 0")
    return paths


def test_one_minor_order_and_rank_match_all_minors_on_corpus_sums_and_pool():
    groups = [e.presentation for e in ALL]
    groups += [free_product(a.presentation, b.presentation) for a, b in SUM_PAIRS]
    groups += [parse_presentation(t) for t in DEFICIENT_FP + ZERO_COLUMN_FP]
    groups += _orders_pool()
    paths = []
    for p in groups:
        paths += _fox_block_paths(fox_matrix(_fresh(p)))
    counts = {k: paths.count(k) for k in ("unit", "geometric", "binomial", "image 0", "rank-deficient")}
    assert min(counts.values()) >= 2, counts


@settings(max_examples=150, deadline=None)
@given(_presentations(), st.booleans())
def test_one_minor_order_and_rank_match_all_minors_on_random_presentations(p, square):
    # With `square`, the first relator is repeated as its square, whose Fox
    # row is twice its own: a rank-deficient block unless a pivot clears it.
    if square and p.relators:
        p = GroupPresentation(p.generators, p.relators + (p.relators[0] * 2,))
    F = fox_matrix(p)
    if F.nvars <= 3:
        _fox_block_paths(F)


def test_block_with_all_images_zero_takes_the_elimination():
    # The kernel relation says nothing when every x_c is 1: no minor is
    # read, and the rank and Delta_b^1 come from `_frac_rank` and the gcd.
    x, y = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    rows = [[x + y + y, x - ONE_2, y * y + x]]
    b = alexinv._Block(rows, 2, (0,), (0, 1, 2), ((0, 0), (0, 0), (0, 0)))
    assert alexinv._fox_minor(b) is None
    assert b.rank() == 1 and b.order(2) == LaurentPoly.one(2)
    assert alexinv._Block(rows, 2, (0,), (0, 1, 2)).rank() == 1  # no images given


def test_delta_with_equal_images_takes_no_gcd(monkeypatch):
    # A 1 x 2 block whose images agree: Delta is the other entry, canonical,
    # with no gcd, no division and no elimination.  The braid trefoil and
    # the `delta` requests of the benchmark's cli_sidepaths pool.
    texts = ("gens a b\nrel a b a b^-1 a^-1 b^-1\n", "gens a b\nrel a^5 b^-5\n")
    want = [_reference_order_k(fox_matrix(parse_presentation(t)), 1) for t in texts]
    gcds, divisions = _count_calls(monkeypatch, "gcd"), _count_calls(monkeypatch, "exact_div")
    monkeypatch.setattr(exactla, "bareiss", None)
    got = [first_order(fox_matrix(parse_presentation(t))) for t in texts]
    assert got == [(1, d) for d in want]
    assert want[0] == T * T - T + ONE
    assert gcds == divisions == []
