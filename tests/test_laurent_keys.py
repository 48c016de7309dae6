"""Differential tests of `LaurentPoly`, which stores packed exponent keys,
against the tuple form: every polynomial here is also a dict
{exponent tuple: coefficient}, and each operation is redone on those dicts
by the plain loops below, which are the reference.

Exponents are drawn near 0 and near +-2^31, the edge of the key range with
two or more variables, where an operation must raise LimitError instead of
wrapping: a product raises exactly when, in some variable, the sum of the
operands' largest exponents or of their smallest reaches 2^31 in
magnitude, a shift when some shifted exponent does, and the canonical form
when some variable's exponents spread over 2^31 or more.  Every result's
exponent bound must cover its exponents.
"""

from contextlib import contextmanager
from math import gcd as igcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from alexlab import laurent
from alexlab.errors import LimitError
from alexlab.laurent import LaurentPoly

LIMIT = 2**31


# -- the tuple form --------------------------------------------------------------


def tup(p):
    return dict(p.terms)


def poly(n, d):
    return LaurentPoly(n, sorted((e, c) for e, c in d.items() if c))


def bound(n, d):
    return max((abs(x) for e in d for x in e), default=0) if n > 1 else 0


def r_reach(n, a, b):
    """The largest |exponent sum| that a product of a and b forms in some
    variable, before any cancellation (0 below two variables)."""
    if n < 2 or not a or not b:
        return 0
    return max(
        max(max(e[i] for e in a) + max(e[i] for e in b), -min(e[i] for e in a) - min(e[i] for e in b))
        for i in range(n)
    )


def covers(p):
    """p's exponent bound is at least every |exponent| of p."""
    assert p.nvars < 2 or p._bound >= bound(p.nvars, tup(p))
    return p


def r_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def r_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def r_shift(a, by):
    return {tuple(x + y for x, y in zip(e, by)): c for e, c in a.items()}


def r_min(n, a):
    if not a:
        return (0,) * n
    return tuple(min(e[i] for e in a) for i in range(n))


def r_spread(n, a):
    """max over variables of max - min exponent."""
    if not a:
        return 0
    return max((max(e[i] for e in a) - min(e[i] for e in a) for i in range(n)), default=0)


def r_canonical(n, a):
    if not a:
        return a
    a = r_shift(a, tuple(-x for x in r_min(n, a)))
    return {e: -c for e, c in a.items()} if a[max(a)] < 0 else a


def r_exact_div(n, a, b):
    """Tuple-keyed long division with a rescan for the leading term."""
    if not a:
        return {}
    sa, sb = r_min(n, a), r_min(n, b)
    rem = r_shift(a, tuple(-x for x in sa))
    d = r_shift(b, tuple(-x for x in sb))
    dl = max(d)
    quo = {}
    while rem:
        le = max(rem)
        qe = tuple(x - y for x, y in zip(le, dl))
        if any(x < 0 for x in qe) or rem[le] % d[dl]:
            return None
        qc = rem[le] // d[dl]
        quo[qe] = qc
        for e, c in d.items():
            k = tuple(x + y for x, y in zip(qe, e))
            v = rem.get(k, 0) - qc * c
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return r_shift(quo, tuple(x - y for x, y in zip(sa, sb)))


def _content(values):
    g = 0
    for x in values:
        g = igcd(g, x)
    return g


def _r_heu_gcd(f, g, n):
    """GCDHEU on tuple dicts with nonnegative exponents (the loop `_heu_gcd`
    ran before keys), certified by `r_exact_div`."""
    if n == 0:
        return {(): igcd(f[()], g[()])}
    if not any(e[-1] for e in f) and not any(e[-1] for e in g):
        h = _r_heu_gcd({e[:-1]: c for e, c in f.items()}, {e[:-1]: c for e, c in g.items()}, n - 1)
        return {e + (0,): c for e, c in h.items()}
    cf, cg = _content(f.values()), _content(g.values())
    f = {e: c // cf for e, c in f.items()}
    g = {e: c // cg for e, c in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    while True:
        ff, gg = {}, {}
        for src, dst in ((f, ff), (g, gg)):
            for e, c in src.items():
                dst[e[:-1]] = dst.get(e[:-1], 0) + c * xi ** e[-1]
        ff = {e: c for e, c in ff.items() if c}
        gg = {e: c for e, c in gg.items() if c}
        if ff and gg:
            lift = {}
            for e, c in _r_heu_gcd(ff, gg, n - 1).items():
                k = 0
                while c:
                    d = c % xi
                    if d > xi // 2:
                        d -= xi
                    if d:
                        lift[e + (k,)] = d
                    c, k = (c - d) // xi, k + 1
            hc = _content(lift.values())
            cand = {e: c // hc for e, c in lift.items()}
            if (
                not any(r_min(n, cand))
                and r_exact_div(n, f, cand) is not None
                and r_exact_div(n, g, cand) is not None
            ):
                return {e: igcd(cf, cg) * c for e, c in cand.items()}
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011


def r_gcd(n, a, b):
    a, b = r_canonical(n, a), r_canonical(n, b)
    if a == b or r_exact_div(n, b, a) is not None:
        return a
    return r_canonical(n, _r_heu_gcd(a, b, n))


# -- strategies -------------------------------------------------------------------

COEFFS = st.integers(-6, 6).filter(bool) | st.sampled_from((10**12 + 1, -(2**70)))


def _shifts(n, room=3):
    """Exponent vectors near 0 or near +-2^31, leaving `room` below the edge."""
    top = LIMIT - 1 - room
    return st.tuples(*[st.integers(-3, 3) | st.sampled_from((top, -top, top - 1, 2**30, -(2**30)))] * n)


@st.composite
def _dicts(draw, n, groups=1, max_terms=4, edge=True):
    """Up to `groups` small dicts (exponents in [-3, 3]), each moved by a
    monomial from `_shifts` when `edge`, united.  One group keeps every
    variable's exponents within 6 of each other, so a division's quotient
    box stays small; two groups may spread a variable over 2^31 or more."""
    out = {}
    for _ in range(draw(st.integers(1, groups))):
        small = st.tuples(*[st.integers(-3, 3)] * n)
        d = draw(st.dictionaries(small, COEFFS, min_size=1, max_size=max_terms))
        out.update(r_shift(d, draw(_shifts(n))) if edge else d)
    return out


@st.composite
def _pairs(draw, groups=2):
    n = draw(st.integers(0, 4))
    return n, draw(_dicts(n, groups)), draw(_dicts(n, groups))


def _raises_or(expect_raise, fn):
    if expect_raise:
        with pytest.raises(LimitError):
            fn()
        return None
    return fn()


# -- the tests --------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(_pairs(), st.integers(-3, 3))
def test_terms_and_ring_operations_match_tuple_form(case, c):
    n, a, b = case
    p, q = poly(n, a), poly(n, b)
    assert p.terms == tuple(sorted(a.items()))
    assert LaurentPoly(n, p.terms) == p and hash(LaurentPoly(n, p.terms)) == hash(p)
    assert (p == q) == (a == b)
    assert repr(p) == "LaurentPoly(nvars=%d, terms=%r)" % (n, p.terms)
    assert p.support() == tuple(sorted(a))
    assert p.to_doc()["terms"] == [{"e": list(e), "c": c} for e, c in sorted(a.items())]
    assert p.is_unit() == (len(a) == 1 and abs(next(iter(a.values()))) == 1)
    assert tup(covers(p + q)) == r_add(a, b)
    assert tup(covers(p - q)) == r_add(a, b, -1)
    assert tup(-p) == {e: -x for e, x in a.items()}
    assert tup(p.scale(c)) == ({e: c * x for e, x in a.items()} if c else {})
    assert (p + q) - q == p and hash((p + q) - q) == hash(p)
    prod = _raises_or(r_reach(n, a, b) >= LIMIT, lambda: p * q)
    if prod is not None:
        ab = r_mul(a, b)
        assert tup(covers(prod)) == ab
        # One more product raises exactly when the product's own exponents
        # reach the edge, whichever bound it carries.
        square = _raises_or(r_reach(n, ab, ab) >= LIMIT, lambda: prod * prod)
        if square is not None:
            assert tup(covers(square)) == r_mul(ab, ab)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), _dicts(n, 2), _shifts(n, 0))))
def test_shift_matches_tuple_form(case):
    n, a, by = case
    p = poly(n, a)
    got = _raises_or(bound(n, r_shift(a, by)) >= LIMIT, lambda: p * LaurentPoly.monomial(n, by))
    if got is not None:
        assert tup(covers(got)) == r_shift(a, by)


@settings(max_examples=80, deadline=None)
@given(_pairs())
def test_canonical_min_exponents_and_spread_match_tuple_form(case):
    n, a, b = case
    p, q = poly(n, a), poly(n, b)
    if a:
        assert tuple(laurent._span(p)[0]) == r_min(n, a)
    assert p.total_degree_spread() == max(map(sum, a)) - min(map(sum, a))
    wide = n > 1 and r_spread(n, a) >= LIMIT
    c = _raises_or(wide, p.canonical)
    if c is None:
        return
    assert tup(c) == r_canonical(n, a)
    assert c.canonical() is c
    if n > 1 and r_spread(n, b) >= LIMIT:
        return
    d = q.canonical()
    # Neither a sum nor a negation of canonical polynomials is canonical in
    # general; each must be normalized again.
    for s in (c + d, c - d, -c):
        if s.is_zero() or (n > 1 and r_spread(n, tup(s)) >= LIMIT):
            continue
        assert tup(s.canonical()) == r_canonical(n, tup(s))
    if r_reach(n, tup(c), tup(d)) < LIMIT:
        prod = c * d
        assert prod.canonical() == prod and tup(prod) == r_canonical(n, r_mul(tup(c), tup(d)))


@st.composite
def _division_cases(draw):
    """(n, a, b): a = b * q for a drawn q half the time.  One group each,
    so no quotient box is wide (a division by t + 1 of t^(2^30) + 1 would
    run 2^30 steps, in the tuple form too)."""
    n = draw(st.integers(0, 4))
    b = draw(_dicts(n))
    if draw(st.booleans()):
        q = draw(_dicts(n, edge=draw(st.booleans())))
        if n < 2 or bound(n, b) + bound(n, q) < LIMIT:
            return n, r_mul(b, q), b
    return n, draw(_dicts(n, max_terms=6)), b


def _expected_division(n, a, b):
    """`exact_div`'s outcome by its rules: None when the quotient box is
    empty, LimitError when the quotient's exponents or the dividend's
    spread reach 2^31 (two or more variables), else the tuple division."""
    lo = [min(e[i] for e in a) - min(e[i] for e in b) for i in range(n)]
    hi = [max(e[i] for e in a) - max(e[i] for e in b) for i in range(n)]
    if any(h < l for l, h in zip(lo, hi)):
        return None
    if n > 1 and (max(map(abs, lo + hi)) >= LIMIT or r_spread(n, a) >= LIMIT):
        return LimitError
    return r_exact_div(n, a, b)


@contextmanager
def _bounded_pops(limit):
    """Fail, rather than hang, when a division takes more than `limit`
    terms off its heap: a quotient term accepted outside the quotient box
    sends the remainder's keys down without end."""
    pop, count = laurent.heappop, [0]

    def counted(heap):
        count[0] += 1
        assert count[0] <= limit, "exact_div ran past %d heap steps" % limit
        return pop(heap)

    laurent.heappop = counted
    try:
        yield
    finally:
        laurent.heappop = pop


@settings(max_examples=120, deadline=None)
@given(_division_cases())
def test_exact_div_matches_tuple_form(case):
    n, a, b = case
    p, d = poly(n, a), poly(n, b)
    want = _expected_division(n, a, b)
    if want is LimitError:
        with pytest.raises(LimitError):
            laurent.exact_div(p, d)
        return
    with _bounded_pops(1000):
        got = laurent.exact_div(p, d)
    assert (None if got is None else tup(got)) == want
    assert laurent.divides(d, p) == (want is not None)


@st.composite
def _gcd_cases(draw):
    """(n, a, b): small polynomials with a common factor half the time,
    each moved by a monomial that may lie near the edge of the key range."""
    n = draw(st.integers(1, 4))
    a, b = draw(_dicts(n, max_terms=3, edge=False)), draw(_dicts(n, max_terms=3, edge=False))
    if draw(st.booleans()):
        g = draw(_dicts(n, max_terms=3, edge=False))
        a, b = r_mul(a, g), r_mul(b, g)
    return n, r_shift(a, draw(_shifts(n, 6))), r_shift(b, draw(_shifts(n, 6)))


@settings(max_examples=60, deadline=None)
@given(_gcd_cases())
def test_gcd_matches_tuple_form(case):
    n, a, b = case
    assert tup(covers(laurent.gcd(poly(n, a), poly(n, b)))) == r_gcd(n, a, b)


@st.composite
def _heu_cases(draw):
    """(n, a, b): canonical operands of `_heu_gcd`, whose last `drop`
    variables are absent from both, so that it drops them first."""
    n = draw(st.integers(2, 4))
    drop = draw(st.integers(0, n - 1))
    small = st.tuples(*[st.integers(0, 3)] * (n - drop) + [st.just(0)] * drop)
    a, b = (draw(st.dictionaries(small, COEFFS, min_size=1, max_size=4)) for _ in "ab")
    return n, r_canonical(n, a), r_canonical(n, b)


@settings(max_examples=60, deadline=None)
@given(_heu_cases())
def test_heu_gcd_result_bound_covers_its_exponents(case):
    n, a, b = case
    h = laurent._heu_gcd(poly(n, a), poly(n, b))
    assert r_canonical(n, tup(covers(h))) == r_gcd(n, a, b)


def test_exact_div_rejects_a_quotient_key_below_zero():
    # After the quotient term 1 the remainder of (x + y) / (x + 1) leads
    # with y, whose quotient exponent (-1, 1) has a valid low digit: only
    # the top digit shows that the key is negative.  The same with more
    # variables, the borrow in the first one.
    for n in (2, 3, 4):
        x, y, one = LaurentPoly.variable(n, 0), LaurentPoly.variable(n, n - 1), LaurentPoly.one(n)
        for p, d in ((x + y, x + one), (x * y + y * y, x * y + one)):
            with _bounded_pops(10):
                assert laurent.exact_div(p, d) is None
                up, down = LaurentPoly.monomial(n, (2**29,) * n), LaurentPoly.monomial(n, (-(2**29),) * n)
                assert laurent.exact_div(p * up, d * down) is None


# -- the key range ------------------------------------------------------------------


def test_monomial_exponent_at_the_key_range_raises():
    for n in (2, 3, 4):
        e = [0] * n
        LaurentPoly.monomial(n, [LIMIT - 1] + e[1:])
        LaurentPoly.monomial(n, e[:-1] + [-(LIMIT - 1)])
        for x in (LIMIT, -LIMIT, 2**40):
            with pytest.raises(LimitError):
                LaurentPoly.monomial(n, e[:-1] + [x])
            with pytest.raises(LimitError):
                LaurentPoly(n, [(tuple([x] + e[1:]), 1)])
    # Univariate keys are the exponents: no bound.
    t = LaurentPoly.monomial(1, [2**40])
    assert (t * t).terms == (((2**41,), 1),)


def test_product_reaching_the_key_range_raises():
    x = LaurentPoly.monomial(2, (2**30, 0))
    y = LaurentPoly.monomial(2, (0, 2**30))
    with pytest.raises(LimitError):
        x * x
    # Only a real exponent of 2^31 raises: the bounds of x and y add up to
    # 2^31, but no variable's exponents do.
    xy = x * y
    assert xy.terms == (((2**30, 2**30), 1),)
    with pytest.raises(LimitError):
        xy * y
    near = LaurentPoly.monomial(2, (2**30 - 1, 0))
    assert (x * near).terms == (((2**31 - 1, 0), 1),)
    assert (near * y).terms == (((2**30 - 1, 2**30), 1),)
    # A unit near -2^30 clears an entry near +2^30 (elimination with a unit).
    entry = x * LaurentPoly.monomial(2, (0, 5)) + x * LaurentPoly.monomial(2, (0, 6), -3)
    inverse = laurent._unit_inverse(x * LaurentPoly.monomial(2, (0, 2**30 - 7)))
    assert (entry * inverse).terms == (((0, -(2**30) + 12), 1), ((0, -(2**30) + 13), -3))
    assert (x * LaurentPoly.monomial(2, (-(2**30), 5))).terms == (((0, 5), 1),)
    with pytest.raises(LimitError):
        (x + LaurentPoly.monomial(2, (-(2**30), 0))).canonical()
