import json
import random
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from alexlab import exactla, laurent
from alexlab.errors import DomainError, LimitError
from alexlab.laurent import LaurentPoly

from cyclo_ref import Cyclo, dense_mul


def P(nvars, *terms):
    return LaurentPoly(nvars, terms)


def V(nvars, i):
    return LaurentPoly.variable(nvars, i)


def C(nvars, c):
    return LaurentPoly.constant(nvars, c)


T = V(1, 0)
ONE = C(1, 1)


def random_poly(rng, nvars, max_terms=3, max_exp=3, max_coeff=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[e] = rng.randint(-max_coeff, max_coeff)
    p = LaurentPoly(nvars, terms.items())
    return p if not p.is_zero() else LaurentPoly.one(nvars)


# -- arithmetic and canonical form -------------------------------------------


def test_multiply_examples():
    assert (T - ONE) * (T + ONE) == T**2 - ONE
    assert ((T - ONE) * LaurentPoly.zero(1)).is_zero()
    x, y = V(2, 0), V(2, 1)
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x - y) * (x - y) == P(2, ((2, 0), 1), ((1, 1), -2), ((0, 2), 1))


def test_multiply_ambient_mismatch():
    with pytest.raises(DomainError):
        ONE * C(2, 1)


def test_constructor_merges_repeats_drops_zeros_and_checks_lengths():
    # Every equality is asserted before any division: a polynomial built
    # with a repeated exponent vector and no merge made exact_div loop.
    zero = LaurentPoly(1, [((1,), 2), ((1,), -2)])
    assert zero == LaurentPoly.zero(1) and zero.is_zero() and zero.terms == ()
    assert hash(zero) == hash(LaurentPoly.zero(1))
    for p in (LaurentPoly(2, [((1, 0), 0)]), LaurentPoly(2, [((0, 0), 0), ((3, -1), 0)])):
        assert p.is_zero() and not p.is_unit() and p == LaurentPoly.zero(2)
    one = LaurentPoly(2, [((0, 0), 1), ((1, 0), 0)])
    assert one.is_unit() and not one.is_zero() and one == LaurentPoly.one(2)
    assert one.terms == (((0, 0), 1),)
    two_x = LaurentPoly(2, [((1, 0), 1), ((1, 0), 1)])
    assert two_x == LaurentPoly.monomial(2, (1, 0), 2)
    assert two_x.terms == (((1, 0), 2),)
    mixed = LaurentPoly(2, [((0, 1), 3), ((1, 0), 1), ((0, 1), -1), ((-1, 2), 0)])
    assert mixed == P(2, ((1, 0), 1), ((0, 1), 2))
    assert laurent.exact_div(LaurentPoly.monomial(2, (1, 0), 2), two_x) == LaurentPoly.one(2)
    for nvars, e in ((2, (1,)), (2, (1, 0, 0)), (1, ()), (0, (0,))):
        with pytest.raises(DomainError):
            LaurentPoly(nvars, [(e, 1)])
    # Past the key range two vectors could share a key: refused first.
    with pytest.raises(LimitError):
        LaurentPoly(2, [((0, 2**32), 1), ((1, 0), -1)])


def test_constructor_and_monomial_refuse_non_integers():
    # A float coefficient would print as `1*t` (the text form uses %d) and
    # a float exponent would become a key.
    for nvars, e, c in ((1, (1,), 1.5), (1, (1.5,), 1), (2, (1, 0.0), 1), (1, (1,), Fraction(1))):
        with pytest.raises(DomainError):
            LaurentPoly(nvars, [(e, c)])
        with pytest.raises(DomainError):
            LaurentPoly.monomial(nvars, e, c)
    with pytest.raises(DomainError):  # a zero coefficient is checked too
        LaurentPoly.monomial(1, (1,), 0.0)
    assert LaurentPoly(1, [((1,), 3)]) == LaurentPoly.monomial(1, (1,), 3)


def test_constant_refuses_non_integers():
    # By the constructor's rule: a float, a str or a Fraction is refused,
    # not truncated or parsed.
    for c in (1.5, "3", Fraction(7, 2)):
        with pytest.raises(DomainError):
            LaurentPoly.constant(1, c)
    assert LaurentPoly.constant(1, 3) == LaurentPoly(1, [((0,), 3)])
    assert LaurentPoly.constant(2, True) == LaurentPoly(2, [((0, 0), True)])
    assert type(LaurentPoly.constant(1, True).terms[0][1]) is int


def test_monomial_builds_through_the_constructor():
    # A bool is an int subclass: the constructor stores the int 1 for True,
    # and so does `monomial`, which goes through it.
    p = LaurentPoly.monomial(1, (1,), True)
    assert p == LaurentPoly(1, [((1,), True)])
    assert type(p.terms[0][1]) is int
    assert json.dumps(p.to_doc()) == '{"nvars": 1, "terms": [{"e": [1], "c": 1}]}'
    assert LaurentPoly.monomial(2, (3, -1), 0) == LaurentPoly.zero(2)
    assert LaurentPoly.variable(3, 1) == LaurentPoly(3, [((0, 1, 0), 1)])
    with pytest.raises(DomainError):
        LaurentPoly.monomial(2, (1,))


def test_canonical_shift_and_sign():
    p = P(1, ((-1,), 1), ((0,), -1))  # t^-1 - 1
    assert p.canonical() == P(1, ((0,), -1), ((1,), 1)).canonical() == T - ONE
    # lex-max term gets a positive coefficient
    assert (ONE - T).canonical() == T - ONE
    assert LaurentPoly.zero(3).canonical().is_zero()


def test_canonical_product_of_canonicals_is_canonical():
    rng = random.Random(5)
    for _ in range(100):
        p = random_poly(rng, 2).canonical()
        q = random_poly(rng, 2).canonical()
        prod = p * q
        assert prod == prod.canonical()


def test_text_form():
    assert (T * T - T + ONE).text() == "t^2 - t + 1"
    x, y = V(2, 0), V(2, 1)
    p = C(2, 1) - C(2, 3) * x * y + (x * y) ** 2
    assert p.text() == "1 - 3*t1*t2 + t1^2*t2^2"
    assert LaurentPoly.zero(2).text() == "0"
    assert C(0, -7).text() == "-7"


def _term_str_text(p):
    """Univariate text by the path `text` took before its one-pass loop:
    terms sorted in descending order, each rendered by `_term_str`."""
    out = []
    for i, (e, c) in enumerate(sorted(p.terms, reverse=True)):
        body = p._term_str(e, c, ("t",))
        if i == 0:
            out.append("-" + body if c < 0 else body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-4, 12)),
        st.integers(-30, 30).filter(bool) | st.sampled_from((1, -1)),
        min_size=1,
        max_size=10,
    )
)
def test_univariate_text_matches_term_str_path(terms):
    # Negative coefficients, constant terms, t^1, t^-k and |c| = 1 all
    # appear among the drawn terms.
    p = LaurentPoly(1, terms.items())
    assert p.text() == _term_str_text(p)


def test_univariate_text_examples():
    cases = {
        "-1": -ONE,
        "1": ONE,
        "-t": -T,
        "t - 1": T - ONE,
        "-2*t^3 + t - 12": C(1, -2) * T**3 + T - C(1, 12),
        "-t^2 + 3*t^-1 - t^-4": P(1, ((2,), -1), ((-1,), 3), ((-4,), -1)),
    }
    for want, p in cases.items():
        assert p.text() == want == _term_str_text(p)


# -- exact division ------------------------------------------------------------


def test_exact_div_laurent_shifts():
    p = P(1, ((-2,), 1), ((1,), -1))  # t^-2 - t
    d = P(1, ((-1,), 1))  # t^-1
    q = laurent.exact_div(p, d)
    assert q == P(1, ((-1,), 1), ((2,), -1))
    assert laurent.exact_div(T * T - ONE, T + C(1, 2)) is None


def _min_exponents(p):
    """The tuple oracle for `laurent._span(p)[0]`, p nonzero."""
    return tuple(min(e[i] for e, _ in p.terms) for i in range(p.nvars))


def _reference_exact_div(p, d):
    """The tuple-keyed division that packed `exact_div` replaced: rescan the
    remainder for its lex-largest term, one quotient term at a time."""
    if p.is_zero():
        return p
    sp = _min_exponents(p)
    sd = _min_exponents(d)
    P_ = dict((p * LaurentPoly.monomial(p.nvars, [-x for x in sp])).terms)
    D = d * LaurentPoly.monomial(d.nvars, [-x for x in sd])
    dl_e, dl_c = D.terms[-1]
    quo = {}
    while P_:
        le = max(P_)
        lc = P_[le]
        qe = tuple(a - b for a, b in zip(le, dl_e))
        if any(x < 0 for x in qe) or lc % dl_c:
            return None
        qc = lc // dl_c
        quo[qe] = quo.get(qe, 0) + qc
        for e, c in D.terms:
            ke = tuple(a + b for a, b in zip(qe, e))
            nc = P_.get(ke, 0) - qc * c
            if nc:
                P_[ke] = nc
            else:
                P_.pop(ke, None)
    q = LaurentPoly(p.nvars, quo.items())
    return q * LaurentPoly.monomial(q.nvars, [a - b for a, b in zip(sp, sd)])


@st.composite
def _laurent_polys(draw, nvars, max_terms=5):
    # Narrow exponent ranges make packed sums meet the radix often.
    top = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-top, top)] * nvars)
    coeffs = st.integers(-5, 5).filter(bool)
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms))
    return LaurentPoly(nvars, terms.items())


@st.composite
def _division_cases(draw):
    """(p, d, q): p = d*q when q is not None, else an arbitrary p."""
    nvars = draw(st.integers(0, 4))
    d = draw(_laurent_polys(nvars))
    if draw(st.booleans()):
        q = draw(_laurent_polys(nvars))
        return d * q, d, q
    return draw(_laurent_polys(nvars, max_terms=8)), d, None


def _reference_canonical(p):
    """Shift to min exponents 0, then negate if the lex-max coefficient is
    negative, always building a new polynomial."""
    if p.is_zero():
        return p
    q = p * LaurentPoly.monomial(p.nvars, [-m for m in _min_exponents(p)])
    return -q if q.terms[-1][1] < 0 else q


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(_laurent_polys))
def test_canonical_matches_reference_and_keeps_canonical_inputs(p):
    c = p.canonical()
    assert c == _reference_canonical(p)
    assert c.canonical() is c
    if not p.is_zero():
        assert tuple(laurent._span(p)[0]) == _min_exponents(p)


@settings(max_examples=400, deadline=None)
@given(_division_cases())
def test_exact_div_matches_reference(case):
    p, d, q = case
    got = laurent.exact_div(p, d)
    assert got == _reference_exact_div(p, d)
    if q is not None:
        assert got == q


def test_exact_div_rejections_against_reference():
    x, y, z = (V(3, i) for i in range(3))
    u, v = V(2, 0), V(2, 1)
    one = C(3, 1)
    cases = [
        # after the quotient term x the remainder leads with x^2*y, so the
        # next quotient exponent would be (1, 0, -1): packed, z borrows
        # from y and its digit lands above its bound
        (x * x * y * z + x * x * y + one, x * y * z + one),
        # the same in two variables, with (1, -1)
        (u * u * v + u * u + C(2, 1), u * v + C(2, 1)),
        # quotient exponent z, above deg_z p - deg_z d = 0: packed with
        # radix 2, z^2 would carry into y and x*z - y pass as (x - z)*z
        (x * z - y, x - z),
        # the same in two variables: y^2 would carry into x
        (u * v + u.scale(2) + v, u + v),
        # deg_z d > deg_z p
        (x + one, z + one),
        (x * x - one, x * z - one),
        # divisible, with negative exponents in the quotient
        ((x * y - z) * (x - z * LaurentPoly.monomial(3, (0, 0, -2))), x * y - z),
        # only the coefficient fails
        (x.scale(2) + C(3, 3), x + one),
    ]
    for p, d in cases:
        assert laurent.exact_div(p, d) == _reference_exact_div(p, d)
    assert [laurent.exact_div(p, d) is None for p, d in cases] == [True] * 6 + [False, True]


def test_exact_div_without_variables():
    assert laurent.exact_div(C(0, 6), C(0, -3)) == C(0, -2)
    assert laurent.exact_div(C(0, 6), C(0, 4)) is None
    assert laurent.exact_div(LaurentPoly.zero(0), C(0, 4)) == LaurentPoly.zero(0)
    with pytest.raises(DomainError):
        laurent.exact_div(C(0, 6), LaurentPoly.zero(0))


def test_divides():
    assert laurent.divides(T - ONE, T * T - ONE)
    assert not laurent.divides(T - ONE, T + ONE)
    assert laurent.divides(LaurentPoly.zero(1), LaurentPoly.zero(1))


# -- gcd ------------------------------------------------------------------------


def test_gcd_examples():
    # factorization oracle: t^2-1 = (t-1)(t+1), t^3-1 = (t-1)(t^2+t+1)
    assert laurent.gcd(T**2 - ONE, T**3 - ONE) == T - ONE
    p = T**5 - C(1, 3)
    assert laurent.gcd(p, LaurentPoly.zero(1)) == p.canonical()
    x, y = V(2, 0), V(2, 1)
    one2 = C(2, 1)
    # (x-1)(y-1) vs (x-1)(y+1), expanded
    a = (x - one2) * (y - one2)
    b = (x - one2) * (y + one2)
    assert laurent.gcd(a, b) == (x - one2).canonical()


def test_gcd_of_associates_needs_no_division(monkeypatch):
    # gcd(p, u*p) for a unit u = +-monomial is p.canonical(), decided by
    # comparing the canonical operands, before any exact division.
    calls = []
    div = laurent.exact_div
    monkeypatch.setattr(laurent, "exact_div", lambda a, b: calls.append((a, b)) or div(a, b))
    rng = random.Random(471)
    for _ in range(100):
        nvars = rng.randint(1, 3)
        p = random_poly(rng, nvars, max_terms=6, max_exp=5)
        u = LaurentPoly.monomial(nvars, [rng.randint(-4, 4) for _ in range(nvars)], rng.choice((1, -1)))
        assert laurent.gcd(p, u * p) == p.canonical()
        assert laurent.gcd(u * p, p) == p.canonical()
    delta = LaurentPoly(1, [((k,), 1) for k in range(300)])  # a^300 b^-300
    assert laurent.gcd(delta, -delta * LaurentPoly.monomial(1, (-300,))) == delta
    assert calls == []
    assert laurent.gcd(T**2 - ONE, T**3 - ONE) == T - ONE
    assert calls


def test_gcd_zero_conventions():
    z = LaurentPoly.zero(2)
    assert laurent.gcd(z, z).is_zero()


def test_gcd_divides_and_coprime_cofactors():
    rng = random.Random(99)
    for _ in range(200):
        nv = rng.randint(1, 3)
        g = random_poly(rng, nv)
        p = g * random_poly(rng, nv)
        q = g * random_poly(rng, nv)
        d = laurent.gcd(p, q)
        cp = laurent.exact_div(p.canonical(), d)
        cq = laurent.exact_div(q.canonical(), d)
        assert cp is not None and cq is not None
        assert laurent.gcd(cp, cq).is_unit()


def _s_product_pair():
    # The product of 1 - t^a over this S against (1 - t)^12 (t + 7): the
    # first six evaluation points all fail, the seventh certifies.
    f = ONE
    for a in (1, 2, 5, 8, 13, 18, 28, 29, 30, 31, 37, 39):
        f = f * (ONE - T**a)
    return f, (ONE - T) ** 12 * (T + C(1, 7))


def _sympy_gcd_cases():
    """Pairs for the sympy differential tests: 60 small pairs with a
    planted factor, then pairs with degree >= 40 in one variable,
    coefficients up to 10^6, coprime pairs with no planted factor, pairs
    where one operand lacks a variable (nvars 1..4), and last the pair of
    `_s_product_pair`, which needs more than six evaluation points."""
    rng = random.Random(1234)
    cases = []
    for _ in range(60):
        nv = rng.randint(1, 3)
        g = random_poly(rng, nv)
        cases.append((g * random_poly(rng, nv), g * random_poly(rng, nv)))
    for i in range(8):
        nv = i % 4 + 1
        x = V(nv, rng.randrange(nv))
        g = random_poly(rng, nv) + x ** rng.randint(20, 30)
        p = g * (random_poly(rng, nv) + x ** rng.randint(20, 30))
        q = g * (random_poly(rng, nv) + x ** rng.randint(20, 30))
        cases.append((p, q))
    for i in range(8):
        nv = i % 4 + 1
        g = random_poly(rng, nv, max_terms=4, max_coeff=10**3)
        p = g * random_poly(rng, nv, max_terms=4, max_coeff=10**3)
        q = g * random_poly(rng, nv, max_terms=4, max_coeff=10**6)
        cases.append((p, q))
    for i in range(8):
        nv = i % 4 + 1
        cases.append(
            (random_poly(rng, nv, max_terms=6), random_poly(rng, nv, max_terms=6))
        )
    for i in range(8):
        nv = i % 3 + 2
        v = rng.randrange(nv)
        drop = tuple(0 if j == v else 1 for j in range(nv))

        def without_v(p):
            return LaurentPoly(
                nv, [(tuple(a * b for a, b in zip(e, drop)), c) for e, c in p.terms]
            )

        g = without_v(random_poly(rng, nv))
        p = g * (random_poly(rng, nv) + V(nv, v))
        cases.append((p, g * without_v(random_poly(rng, nv, max_terms=4))))
    cases.append(_s_product_pair())
    return cases


def _max_degree(p):
    return max(max(e) for e, _ in p.terms)


def _check_gcd_against_sympy(sympy, keep=lambda p: True):
    xs = sympy.symbols("x0:4")

    def to_sympy(p):
        expr = sympy.Integer(0)
        for e, c in p.terms:
            term = sympy.Integer(c)
            for xi, ei in zip(xs, e):
                term *= xi**ei
            expr += term
        return sympy.expand(expr)

    def from_sympy(expr, nv):
        poly = sympy.Poly(expr, *xs[:nv])
        return LaurentPoly(
            nv, [(tuple(m), int(c)) for m, c in zip(poly.monoms(), poly.coeffs())]
        )

    cases = [(p, q) for p, q in _sympy_gcd_cases() if keep(p)]
    for p, q in cases:
        ours = laurent.gcd(p, q)
        theirs = from_sympy(sympy.gcd(to_sympy(p), to_sympy(q)), p.nvars)
        assert ours == theirs.canonical(), (p, q)
    return cases


def test_gcd_against_sympy():
    sympy = pytest.importorskip("sympy")
    cases = _check_gcd_against_sympy(sympy)
    assert {p.nvars for p, _ in cases} == {1, 2, 3, 4}
    assert min(_max_degree(p) for p, _ in cases[60:68]) >= 40
    assert max(abs(c) for p, q in cases for _, c in p.terms + q.terms) >= 10**6


def test_gcd_tries_more_than_six_evaluation_points(monkeypatch):
    lifted = []
    lift = laurent._lift_last

    def counted(h, xi):
        lifted.append(xi)
        return lift(h, xi)

    monkeypatch.setattr(laurent, "_lift_last", counted)
    f, g = _s_product_pair()
    assert laurent.gcd(f, g) == ((ONE - T) ** 12).canonical()
    assert len(lifted) > 6


def test_gcd_without_a_certified_candidate_raises_limit_error(monkeypatch):
    # Every lift becomes t + 3 xi + 1 in the last variable, which is beyond
    # the root bound of the operand with the smaller norm, so no candidate
    # ever divides both: a pair that needs a lift must stop at the cap on xi.
    # The others (one operand divides the other, or both are monomials) are
    # settled without a lift and keep their answer.
    cases = [(p, q, laurent.gcd(p, q)) for p, q in _sympy_gcd_cases()]
    lifted = []

    def non_divisor(h, xi):
        lifted.append(xi)
        # Keys: the constant slice (key 0) lifted to keys 1 and 0.
        return {1: 1, 0: 3 * xi + 1}

    monkeypatch.setattr(laurent, "_lift_last", non_divisor)
    raised = 0
    start = time.perf_counter()
    for p, q, d in cases:
        del lifted[:]
        try:
            assert laurent.gcd(p, q) == d and not lifted, (p, q)
        except LimitError:
            raised += 1
    assert time.perf_counter() - start < 1.0
    assert raised >= 70


def _thue_morse(n):
    """prod_{i < n} (1 - t^(2^i)): 2^n terms of degree up to 2^n - 1."""
    p = ONE
    for i in range(n):
        p = p * (ONE - T ** (2**i))
    return p


def _reference_eval_last(f, xi):
    powers = [1]
    for _ in range(max(e[-1] for e in f)):
        powers.append(powers[-1] * xi)
    out = {}
    for e, c in f.items():
        out[e[:-1]] = out.get(e[:-1], 0) + c * powers[e[-1]]
    return {e: c for e, c in out.items() if c}


def _keyed(f):
    """A {exponent tuple: int} dict (nonnegative exponents) as a {key: int}
    dict, whose items are the pairs `_eval_last` takes."""
    return {laurent._key(e): c for e, c in f.items()}


def _decoded(h, nvars):
    """A {key: int} dict of `nvars` nonnegative exponents as tuples."""
    return {tuple((k >> (32 * (nvars - 1 - i))) & 0xFFFFFFFF for i in range(nvars)): c for k, c in h.items()}


def test_eval_last_matches_power_list_reference():
    rng = random.Random(13)
    for _ in range(300):
        nvars = rng.randint(1, 3)
        f = dict(random_poly(rng, nvars, max_terms=8, max_exp=6, max_coeff=9).terms)
        xi = rng.choice((2, 3, 7, 1000, 10**6 + 3))
        assert _decoded(laurent._eval_last(_keyed(f).items(), xi), nvars - 1) == _reference_eval_last(f, xi)
    # A slice that evaluates to zero is dropped: (t - 2) x at t = 2.
    f = {(1, 1): 1, (1, 0): -2, (0, 0): 5}
    assert _decoded(laurent._eval_last(_keyed(f).items(), 2), 1) == {(0,): 5}


def test_eval_last_memory_is_linear_in_the_degree():
    # The power list xi^0 .. xi^4095 alone takes about 22 MB.
    f = dict(_thue_morse(12).terms)
    keyed = _keyed(f).items()
    xi = 10**6 + 3
    tracemalloc.start()
    try:
        out = laurent._eval_last(keyed, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert _decoded(out, 0) == _reference_eval_last(f, xi)


def test_gcd_heuristic_certifies_its_candidates():
    # At xi = 4 the integer gcd of 30 and 75 is 15, whose base-4 digits
    # lift to t^2 - 1: it divides the second operand but not the first.
    p = T**2 + C(1, 3) * T + C(1, 2)  # (t + 1)(t + 2)
    q = T**3 + T**2 - T - ONE  # (t + 1)^2 (t - 1)
    assert laurent.gcd(p, q) == T + ONE
    # xi = 4 is a root of the first operand in its last variable.
    x, y = V(2, 0), V(2, 1)
    p = (y - C(2, 4)) * (x + C(2, 1))
    assert laurent.gcd(p, x + C(2, 1)) == x + C(2, 1)
    assert laurent.gcd(T - C(1, 4), T + ONE) == ONE


def test_gcd_variable_limit(monkeypatch):
    p = LaurentPoly.one(7) + LaurentPoly.variable(7, 0)
    with pytest.raises(LimitError):
        laurent.gcd(p, p)
    monkeypatch.setenv("ALEXLAB_MAX_VARS", "8")
    assert laurent.gcd(p, p) == p.canonical()


# -- Newton polytope --------------------------------------------------------------


def test_newton_dim_examples():
    assert laurent.newton_dim(C(1, 5)) == 0
    assert laurent.newton_dim(T**2 - C(1, 3) * T + ONE) == 1
    x, y = V(2, 0), V(2, 1)
    assert laurent.newton_dim(C(2, 1) + x + y) == 2
    with pytest.raises(DomainError):
        laurent.newton_dim(LaurentPoly.zero(2))


def test_newton_dim_of_products():
    # dim Newt(pq) = rank of the stacked difference sets (Minkowski sum),
    # hence <= dim p + dim q with equality iff the spans are independent.
    rng = random.Random(321)
    for _ in range(100):
        nv = rng.randint(1, 4)
        p = random_poly(rng, nv, max_terms=4)
        q = random_poly(rng, nv, max_terms=4)
        dp, dq = laurent.newton_dim(p), laurent.newton_dim(q)
        dpq = laurent.newton_dim(p * q)
        assert dpq <= dp + dq
        rows = []
        for poly in (p, q):
            base = poly.support()[0]
            rows.extend(
                tuple(a - b for a, b in zip(s, base)) for s in poly.support()[1:]
            )
        expected = exactla.integer_rank(rows)
        assert dpq == expected


def test_newton_dim_builds_difference_rows_only_as_read(monkeypatch):
    # The 5 x 5 x 5 box of exponents in three variables: in lex order the
    # rank is full at the 25th difference row, (1, 0, 0), so 99 of the 124
    # rows are never built.  (Rows handed over as a list would all be left.)
    left = []
    rank = exactla.integer_rank

    def spy(rows):
        r = rank(rows)
        left.append(sum(1 for _ in rows))
        return r

    monkeypatch.setattr(exactla, "integer_rank", spy)
    x, y, z = V(3, 0), V(3, 1), V(3, 2)
    p = C(3, 1)
    for v in (x, y, z):
        p = p * (C(3, 1) + v + v**2 + v**3 + v**4)
    assert laurent.newton_dim(p) == 3
    assert left == [99]


# -- line support -------------------------------------------------------------------


def _unit_equal(a, b):
    return a.canonical() == b.canonical()


def _reassemble_line(uf, nvars):
    """The sum of c * t^(k*h) over the terms c * t^k of the univariate
    form, h its direction."""
    out = LaurentPoly.zero(nvars)
    for (k,), c in uf.poly.terms:
        out = out + LaurentPoly.monomial(nvars, tuple(k * h for h in uf.direction), c)
    return out


def test_line_support_examples():
    x, y = V(2, 0), V(2, 1)
    p = (x * y) ** 2 - C(2, 3) * x * y + C(2, 1)
    uf = laurent.line_support(p)
    assert uf.direction == (1, 1)
    assert uf.poly == T**2 - C(1, 3) * T + ONE
    assert _unit_equal(_reassemble_line(uf, 2), p)
    assert laurent.line_support(C(2, 1) + x + y) is None
    uf = laurent.line_support(C(3, 7))
    assert uf.direction == (1, 0, 0)
    assert uf.poly == C(1, 7)


def test_line_support_reassembles_up_to_unit():
    rng = random.Random(77)
    for _ in range(50):
        k = rng.randint(1, 4)
        h = tuple(rng.randint(-2, 2) for _ in range(3))
        if not any(h):
            h = (1, 0, 0)
        coeffs = [rng.randint(-3, 3) for _ in range(k + 1)]
        if not any(coeffs):
            coeffs[0] = 1
        p = LaurentPoly(
            3, [(tuple(j * hi for hi in h), c) for j, c in enumerate(coeffs) if c]
        )
        uf = laurent.line_support(p)
        assert uf is not None
        assert _unit_equal(_reassemble_line(uf, 3), p)


def test_line_support_is_none_exactly_above_dimension_one():
    rng = random.Random(2012)
    seen = {True: 0, False: 0}
    for t in range(400):
        nv = rng.randint(1, 3)
        if t % 2:
            p = random_poly(rng, nv, max_terms=5)
            p = p * LaurentPoly.monomial(nv, [rng.randint(-2, 2) for _ in range(nv)])
        else:  # collinear support, with a random base point
            h = [rng.randint(-2, 2) for _ in range(nv)]
            base = [rng.randint(-3, 3) for _ in range(nv)]
            p = LaurentPoly(
                nv,
                [
                    (tuple(b + j * x for b, x in zip(base, h)), rng.choice((-2, -1, 1, 3)))
                    for j in rng.sample(range(-3, 4), rng.randint(1, 4))
                ],
            )
            if p.is_zero():
                continue
        uf = laurent.line_support(p)
        wide = laurent.newton_dim(p) > 1
        assert (uf is None) == wide, p
        seen[wide] += 1
        if uf is not None:
            assert _unit_equal(_reassemble_line(uf, nv), p), p
    assert min(seen.values()) >= 50, seen


def test_univariate_line_support_equals_the_general_path():
    # The keys shifted by the least key, against the tuple path of the same
    # polynomial in t1 with t2 set to a fixed power: one term included.
    rng = random.Random(1)
    for t in range(200):
        p = random_poly(rng, 1, max_terms=1 if t % 4 == 0 else 6, max_exp=12)
        p = p * LaurentPoly.monomial(1, (rng.randint(-20, 20),))
        lifted = laurent.apply_exponent_map(p, [[1], [0]], 2) * LaurentPoly.monomial(2, (0, t % 5))
        uf, general = laurent.line_support(p), laurent.line_support(lifted)
        assert uf.direction == (1,) and general.direction == (1, 0)
        assert uf.poly == general.poly, p
    assert laurent.line_support(C(1, -4)) == laurent.UnivariateForm((1,), C(1, -4))


def test_line_support_takes_no_newton_dim(monkeypatch):
    calls = []
    monkeypatch.setattr(laurent, "newton_dim", lambda p: calls.append(p))
    x, y = V(2, 0), V(2, 1)
    assert laurent.line_support(C(2, 1) + x + y) is None
    assert laurent.line_support(x * x - C(2, 1)) is not None
    assert calls == []


# -- cyclotomic ---------------------------------------------------------------------


def test_cyclotomic_polynomials():
    assert laurent.cyclotomic_polynomial(1) == T - ONE
    assert laurent.cyclotomic_polynomial(2) == T + ONE
    assert laurent.cyclotomic_polynomial(6) == T**2 - T + ONE
    assert laurent.cyclotomic_polynomial(12) == T**4 - T**2 + ONE
    # product over divisors of n rebuilds t^n - 1
    for n in (1, 2, 6, 10, 12):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * laurent.cyclotomic_polynomial(d)
        assert prod == T**n - ONE


def test_cyclotomic_decompose_examples():
    dec = laurent.cyclotomic_decompose(T**2 - T + ONE)
    assert (dec.content, dec.factors) == (1, ((6, 1),))
    assert dec.is_cyclotomic_product

    # roots (3 +- sqrt(5))/2 are off the unit circle: nothing divides
    p = T**2 - C(1, 3) * T + ONE
    dec = laurent.cyclotomic_decompose(p)
    assert dec.factors == ()
    assert dec.remainder == p

    dec = laurent.cyclotomic_decompose(C(1, 2) * T**3 - C(1, 2))
    assert (dec.content, dec.factors) == (2, ((1, 1), (3, 1)))
    assert dec.is_cyclotomic_product

    with pytest.raises(DomainError):
        laurent.cyclotomic_decompose(LaurentPoly.zero(1))


def _reassemble_cyclo(dec):
    """content * prod Phi_d^mult * remainder."""
    out = LaurentPoly.constant(1, dec.content)
    for d, m in dec.factors:
        out = out * laurent.cyclotomic_polynomial(d) ** m
    return out * dec.remainder


def test_cyclotomic_decompose_reassembles_and_remainder_is_clean():
    rng = random.Random(42)
    for _ in range(40):
        p = ONE
        for _ in range(rng.randint(0, 3)):
            p = p * laurent.cyclotomic_polynomial(rng.randint(1, 10))
        p = p.scale(rng.choice([1, 2, 3, -2]))
        if rng.random() < 0.5:
            p = p * (T**2 - C(1, 3) * T + ONE)
        dec = laurent.cyclotomic_decompose(p)
        assert _unit_equal(_reassemble_cyclo(dec), p)
        # exhaustive check: no cyclotomic divides the remainder
        rem = dec.remainder
        if rem.support() != ((0,),):
            deg = max(e for (e,), _ in rem.terms)
            for d in range(1, 2 * deg * deg + 1):
                if laurent.euler_phi(d) <= deg:
                    assert laurent.exact_div(rem, laurent.cyclotomic_polynomial(d)) is None


def _to_sympy(sympy, x, p):
    return sympy.Poly(
        {(k,): c for (k,), c in p.canonical().terms}, x, domain=sympy.ZZ
    )


def test_cyclotomic_polynomial_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for d in list(range(1, 301)) + [420, 600, 2310]:
        theirs = sympy.Poly(sympy.cyclotomic_poly(d, x), x)
        assert _to_sympy(sympy, x, laurent.cyclotomic_polynomial(d)) == theirs, d


def test_cyclotomic_decompose_against_sympy():
    """Content, (d, mult) factors and remainder against sympy's factor_list,
    on random products of Phi_d (d <= 60, multiplicity <= 3) times a content
    and sometimes a factor off the unit circle."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    want_phi = {
        sympy.Poly(sympy.cyclotomic_poly(d, x), x): d for d in range(1, 61)
    }
    rng = random.Random(2310)
    for _ in range(30):
        p = C(1, rng.choice([1, 2, 6, 35]))
        for _ in range(rng.randint(0, 3)):
            p = p * laurent.cyclotomic_polynomial(rng.randint(1, 60)) ** rng.randint(1, 3)
        if rng.random() < 0.4:
            p = p * LaurentPoly(
                1, [((0,), rng.choice([-3, 2, 5])), ((1,), rng.randint(-4, 4)), ((2,), 1)]
            )
        dec = laurent.cyclotomic_decompose(p)
        content, factors = _to_sympy(sympy, x, p).factor_list()
        want = {}
        rem = sympy.Poly(1, x, domain=sympy.ZZ)
        for f, mult in factors:
            if f in want_phi:
                want[want_phi[f]] = mult
            else:
                rem = rem * f**mult
        assert dec.content == content
        assert dec.factors == tuple(sorted(want.items()))
        assert _to_sympy(sympy, x, dec.remainder) == rem


def test_small_phi_lists_exactly_the_indices_with_phi_at_most_n():
    for n in (0, 1, 2, 3, 4, 11, 48, 120):
        want = [
            (d, laurent.euler_phi(d), tuple(laurent._prime_factors(d)))
            for d in range(1, 2 * n * n + 3)
        ]
        assert sorted(laurent._small_phi(lambda: n)) == [w for w in want if w[1] <= n], n
        # a bound lowered after the first yield cuts every subtree above it
        bounds = iter([n])
        cut = sorted(laurent._small_phi(lambda: next(bounds, 11)))
        assert cut == [w for w in want if w[1] <= min(n, 11)], n


def test_euler_phi_keeps_no_cache():
    assert [laurent.euler_phi(d) for d in (1, 2, 9, 12, 97, 2310)] == [1, 1, 6, 4, 96, 480]
    assert not hasattr(laurent.euler_phi, "cache_info")


def test_cyclotomic_coeffs_multiply_back_to_binomial():
    """prod over e | d of Phi_e is t^d - 1, for every d up to 300 and a few
    orders with many divisors or a repeated prime."""
    for d in list(range(1, 301)) + [1024, 1260, 2310]:
        prod = [1]
        for e in range(1, d + 1):
            if d % e == 0:
                prod = dense_mul(prod, laurent._cyclotomic_coeffs(e))
        assert prod == [-1] + [0] * (d - 1) + [1], d


def test_cyclotomic_decompose_degree_200_is_fast():
    """t^200 + 3t + 1 has no cyclotomic factor; only the d with
    phi(d) <= 200 are tried, each Phi_d built cold (best of three cold
    runs, against a shared machine's wandering speed)."""
    import time

    p = T**200 + C(1, 3) * T + ONE
    times = []
    for _ in range(3):
        laurent._cyclotomic_coeffs.cache_clear()
        start = time.perf_counter()
        dec = laurent.cyclotomic_decompose(p)
        times.append(time.perf_counter() - start)
        assert (dec.content, dec.factors, dec.remainder) == (1, (), p)
    assert min(times) < 0.1, times


def test_cyclotomic_layer_makes_no_exact_div(monkeypatch):
    from alexlab import alexinv, builders
    from alexlab.fpgroup import fox_matrix

    _, delta = alexinv.first_order(fox_matrix(builders.torus_knot(17, 19)))
    laurent._cyclotomic_coeffs.cache_clear()
    calls = []
    exact_div = laurent.exact_div
    monkeypatch.setattr(
        laurent, "exact_div", lambda p, d: calls.append(d) or exact_div(p, d)
    )
    dec = laurent.cyclotomic_decompose(delta)
    assert (dec.factors, dec.is_cyclotomic_product) == (((323, 1),), True)
    assert calls == []


def _totients(n):
    """phi(d) for d < n, by sieve."""
    phi = list(range(n))
    for p in range(2, n):
        if phi[p] == p:
            for m in range(p, n, p):
                phi[m] -= phi[m] // p
    return phi


def _decompose_reference(p):
    """The exhaustive decomposition: divide the primitive part by every
    Phi_d with phi(d) <= its degree (such d are at most 2 deg^2), d
    increasing, as often as it goes."""
    terms = p.canonical().terms
    c = gcd(*[x for _, x in terms])
    P = [0] * (terms[-1][0][0] + 1)
    for (k,), x in terms:
        P[k] = x // c
    phi = _totients(2 * len(P) ** 2 + 1)
    factors = []
    for d in range(1, len(phi)):
        if phi[d] > len(P) - 1:
            continue
        mult = 0
        q, r = laurent._divmod(P, laurent._cyclotomic_coeffs(d))
        while not any(r):
            P, mult = q, mult + 1
            q, r = laurent._divmod(P, laurent._cyclotomic_coeffs(d))
        if mult:
            factors.append((d, mult))
    return c, tuple(factors), laurent._from_dense(P)


def _sieve_inputs():
    """Seeded inputs for the sieve: signed contents, Phi_1 and Phi_2 up to
    multiplicity 3, Phi_d up to d = 120, factors off the unit circle, the
    constants and linear polynomials, and polynomials that vanish at the
    packing point X, or whose value at X is divisible by Phi_d(X) while
    Phi_d does not divide them (sieve survivors that exact division drops)."""
    X = 1 << laurent._PACK_BITS
    off_circle = [
        T**2 - C(1, 3) * T + ONE,
        C(1, 2) * T + C(1, 3),
        T**3 - T - ONE,
        C(1, 5) * T**2 + C(1, 1),
        T - C(1, X),
    ]
    yield from (C(1, c) for c in (1, -1, 7, -12))
    yield from (T + C(1, c) for c in (-1, 1, 2, -3, -X))
    yield from (C(1, 3) * T - C(1, 3), C(1, -2) * T - C(1, 2), C(1, 5) * T + C(1, 7))
    rng = random.Random(1519)
    for _ in range(60):
        p = C(1, rng.choice([1, -1, 2, -2, 6, -35]))
        p = p * (T - ONE) ** rng.randint(0, 3) * (T + ONE) ** rng.randint(0, 3)
        for _ in range(rng.randint(0, 2)):
            d = rng.randint(3, 120)
            if laurent.euler_phi(d) + p.total_degree_spread() <= 120:
                p = p * laurent.cyclotomic_polynomial(d) ** rng.randint(1, 2)
        if rng.random() < 0.4:
            p = p * rng.choice(off_circle)
        yield p
    for d in (1, 2, 3, 5, 12, 30):
        for _ in range(3):
            q, r = random_poly(rng, 1, 3, 4), random_poly(rng, 1, 2, 3)
            p = laurent.cyclotomic_polynomial(d) * q + (T - C(1, X)) * r
            if not p.is_zero():
                yield p


def test_cyclotomic_sieve_matches_exhaustive_division():
    for p in _sieve_inputs():
        dec = laurent.cyclotomic_decompose(p)
        assert (dec.content, dec.factors, dec.remainder) == _decompose_reference(p), p
        assert _unit_equal(_reassemble_cyclo(dec), p)


def test_cyclotomic_sieve_drops_survivors_that_do_not_divide():
    """t - X vanishes at X = 2^_PACK_BITS, so every Phi_d(X) divides its
    packed value; the exact division must still reject Phi_1 and Phi_2."""
    X = 1 << laurent._PACK_BITS
    p = T - C(1, X)
    dec = laurent.cyclotomic_decompose(p)
    assert (dec.content, dec.factors, dec.remainder) == (1, (), p)
    # Phi_3(X) divides p(X), Phi_3 does not divide p
    p = laurent.cyclotomic_polynomial(3) * (T**2 + ONE) + (T - C(1, X)) * (T + ONE)
    dec = laurent.cyclotomic_decompose(p)
    assert dec.factors == _decompose_reference(p)[1] == ()


def test_packed_phi_is_phi_at_the_packing_point():
    X = 1 << laurent._PACK_BITS
    for d, phi, primes in laurent._small_phi(lambda: 400):
        value = 0
        for c in reversed(laurent._cyclotomic_coeffs(d)):
            value = value * X + c
        assert laurent._packed_phi(d, phi, primes) == value, d


def _torus_knot_delta(p, q):
    from alexlab import alexinv, builders
    from alexlab.fpgroup import fox_matrix

    return alexinv.first_order(fox_matrix(builders.torus_knot(p, q)))[1]


def test_cyclotomic_sieve_builds_only_the_factors_coefficients():
    """Delta of T(17, 19) is Phi_323: of the 576 d with phi(d) <= 288 only
    d = 323 passes the sieve, so only Phi_323's coefficients are built."""
    delta = _torus_knot_delta(17, 19)
    laurent._cyclotomic_coeffs.cache_clear()
    dec = laurent.cyclotomic_decompose(delta)
    assert dec.factors == ((323, 1),)
    info = laurent._cyclotomic_coeffs.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    laurent._cyclotomic_coeffs(323)
    assert laurent._cyclotomic_coeffs.cache_info().hits == info.hits + 1


def test_cyclotomic_decompose_torus_knot_17_19_is_fast():
    """Cold decomposition of Delta(T(17, 19)), degree 288, best of three
    (against a shared machine's wandering speed)."""
    delta = _torus_knot_delta(17, 19)
    times = []
    for _ in range(3):
        laurent._cyclotomic_coeffs.cache_clear()
        start = time.perf_counter()
        dec = laurent.cyclotomic_decompose(delta)
        times.append(time.perf_counter() - start)
        assert dec.factors == ((323, 1),)
    assert min(times) < 0.04, times


# -- evaluation at characters ----------------------------------------------------------


def test_evaluate_examples():
    # The value is the tuple of coefficients on 1, zeta, .., zeta^(phi(m)-1).
    p = T**2 - T + ONE
    assert laurent.evaluate_at_character(p, [Fraction(1, 6)]) == (0, 0)
    assert laurent.evaluate_at_character(p, [Fraction(1, 2)]) == (3,)
    c = C(3, -11)
    assert laurent.evaluate_at_character(c, [Fraction(1, 3), 0, Fraction(1, 2)]) == (-11, 0)
    # Exponents fold mod the order: at 1/5, t^7 and t^-3 are zeta^2, and
    # t^-1 is zeta^4 = -1 - zeta - zeta^2 - zeta^3.
    fifth = [Fraction(1, 5)]
    assert laurent.evaluate_at_character(T**7, fifth) == (0, 0, 1, 0)
    assert laurent.evaluate_at_character(LaurentPoly.monomial(1, (-3,)), fifth) == (0, 0, 1, 0)
    assert laurent.evaluate_at_character(LaurentPoly.monomial(1, (-1,)), fifth) == (-1,) * 4
    assert laurent.evaluate_at_character(T**7 + LaurentPoly.monomial(1, (-3,)), fifth) == (0, 0, 2, 0)
    # t1^3 t2^4 at (1/5, 7/5) is zeta^(3 + 28) = zeta
    mono = LaurentPoly.monomial(2, (3, 4))
    assert laurent.evaluate_at_character(mono, [Fraction(1, 5), Fraction(7, 5)]) == (0, 1, 0, 0)


def _vanishing_poly(rng, nv, nums, m) -> LaurentPoly:
    """A polynomial zero at the character nums/m: a sum of random multiples
    of x_i^d - 1 and Phi_d(x_i), d the order of zeta_m^(a_i)."""
    out = LaurentPoly.zero(nv)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(nv)
        d = m // gcd(m, nums[i])
        if rng.random() < 0.5:
            f = LaurentPoly.monomial(nv, [d if j == i else 0 for j in range(nv)]) - C(nv, 1)
        else:
            rows = [[1 if j == i else 0] for j in range(nv)]
            f = laurent.apply_exponent_map(laurent.cyclotomic_polynomial(d), rows, nv)
        shift = LaurentPoly.monomial(nv, [rng.randint(-3, 3) for _ in range(nv)])
        out = out + random_poly(rng, nv, max_terms=4) * f * shift
    return out


@pytest.mark.parametrize("m", (5, 7, 60, 210, 600, 2310))
def test_vanishes_at_character_matches_the_residue(m):
    # The sparse zero test against the residue mod Phi_m: random entries,
    # which almost never vanish, and sums of multiples of factors that do,
    # some with one term added; Laurent shifts and one to three variables.
    # The residue's dense division takes about 50 ms at m = 2310, hence
    # fewer draws there.
    rng = random.Random(m)
    shifts = [m // q for q in laurent._prime_factors(m)]
    seen = {True: 0, False: 0}
    draws = 45 if m > 1000 else 120
    for t in range(draws):
        nv = rng.randint(1, 3)
        nums = [rng.randrange(m) for _ in range(nv)]
        if t % 3 == 0:
            p = random_poly(rng, nv, max_terms=7, max_exp=9)
            p = p * LaurentPoly.monomial(nv, [rng.randint(-9, 0) for _ in range(nv)])
        else:
            p = _vanishing_poly(rng, nv, nums, m)
            if t % 3 == 2:
                p = p + LaurentPoly.monomial(nv, [rng.randint(-4, 4) for _ in range(nv)])
        if p.is_zero():
            continue
        want = not any(laurent._cyclotomic_residue(p, nums, m))
        assert laurent._vanishes_at_character(p, nums, m, shifts) == want, (p, nums, m)
        seen[want] += 1
    assert min(seen.values()) >= draws // 4, seen


def test_evaluate_is_multiplicative():
    rng = random.Random(314)
    for _ in range(60):
        nv = rng.randint(1, 3)
        p = random_poly(rng, nv)
        q = random_poly(rng, nv)
        rho = [Fraction(rng.randint(0, 5), rng.randint(1, 6)) % 1 for _ in range(nv)]
        m = laurent.character_order(rho)
        ep = laurent.evaluate_at_character(p, rho)
        # the product in the reference ring Z[zeta_m]
        assert laurent.evaluate_at_character(p * q, rho) == (Cyclo.at(p, rho) * Cyclo.at(q, rho)).coeffs
        assert len(ep) == laurent.euler_phi(m)


def test_reference_ring_ops():
    z = Cyclo(5, [0, 1])  # zeta_5
    assert (z + 1) - 1 == z
    assert z * z * z * z * z == 1
    assert z * z * z * z + z * z * z + z * z + z + 1 == 0
    assert z * 2 == z + z and -(z - 1) + z == 1


def test_cyclotomic_coeffs_rebuild_phi_and_reduce():
    for m in range(1, 41):
        coeffs = laurent._cyclotomic_coeffs(m)
        assert len(coeffs) == laurent.euler_phi(m) + 1
        assert all(isinstance(c, int) for c in coeffs)
        rebuilt = LaurentPoly(1, [((k,), c) for k, c in enumerate(coeffs)])
        assert rebuilt == laurent.cyclotomic_polynomial(m)
        # zeta_m^m reduces to 1
        assert Cyclo(m, [0] * m + [1]) == 1


def test_evaluated_integer_polynomials_stay_integral():
    rng = random.Random(60)
    for _ in range(30):
        nv = rng.randint(1, 3)
        rho = [Fraction(rng.randint(0, 9), rng.choice([12, 35, 60])) for _ in range(nv)]
        p, q = random_poly(rng, nv), random_poly(rng, nv)
        assert all(type(c) is int for c in laurent.evaluate_at_character(p, rho))
        ep, eq = Cyclo.at(p, rho), Cyclo.at(q, rho)
        for z in (ep, eq, ep * eq, ep * eq - ep + 3):
            assert all(type(c) is int for c in z.coeffs)

