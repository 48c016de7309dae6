import random
from itertools import product as iproduct

import pytest

from alexlab import alexinv, laurent, obstruct
from alexlab.builders import MonodromyMatrix, free_by_cyclic, torus_bundle, torus_knot
from alexlab.errors import DomainError
from alexlab.fpgroup import abelianize, fox_matrix
from alexlab.laurent import LaurentPoly

T = LaurentPoly.variable(1, 0)
ONE = LaurentPoly.one(1)


def char_poly(A: MonodromyMatrix) -> LaurentPoly:
    return (T**2 - LaurentPoly.constant(1, A.trace) * T + LaurentPoly.constant(1, A.det)).canonical()


def torus_knot_closed_form(p: int, q: int) -> LaurentPoly:
    """(t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), the classical formula."""
    num = (T ** (p * q) - ONE) * (T - ONE)
    den = (T**p - ONE) * (T**q - ONE)
    out = laurent.exact_div(num, den)
    assert out is not None
    return out.canonical()


# -- torus bundles -----------------------------------------------------------------


def test_torus_bundle_identity_is_3_torus():
    p = torus_bundle(MonodromyMatrix.of(1, 0, 0, 1))
    assert abelianize(p).b1 == 3


def test_torus_bundle_trace_3():
    p = torus_bundle(MonodromyMatrix.of(2, 1, 1, 1))
    assert abelianize(p).b1 == 1
    k0, delta = alexinv.first_order(fox_matrix(p))
    assert (k0, delta) == (1, T**2 - LaurentPoly.constant(1, 3) * T + ONE)


def test_torus_bundle_finite_order():
    p = torus_bundle(MonodromyMatrix.of(0, -1, 1, 0))
    _, delta = alexinv.first_order(fox_matrix(p))
    assert delta == T**2 + ONE  # Phi_4
    dec = laurent.cyclotomic_decompose(delta)
    assert dec.is_cyclotomic_product


def test_torus_bundle_rejects_non_unimodular():
    with pytest.raises(DomainError):
        torus_bundle(MonodromyMatrix.of(2, 0, 0, 2))


def test_monodromy_matrix_refuses_entries_that_are_not_ints():
    # Refused, not truncated or parsed; a bool is taken as its int.
    for entries in ((1.9, 1, 0, 1), (1, "1", 0, 1), (1, 1, 0, 1.0)):
        with pytest.raises(DomainError):
            MonodromyMatrix.of(*entries)
    A = MonodromyMatrix.of(True, 1, False, 1)
    assert A.entries == ((1, 1), (0, 1)) and all(type(x) is int for row in A.entries for x in row)


def unimodular_box():
    for a, b, c, d in iproduct(range(-2, 3), repeat=4):
        if abs(a * d - b * c) == 1:
            yield MonodromyMatrix.of(a, b, c, d)


def test_torus_bundle_char_poly_oracle_exhaustive():
    """Whenever b1 = 1 (det(A - I) != 0), the first order is det(tI - A)
    up to unit.  Brute force over the whole |det| = 1 box."""
    checked = 0
    for A in unimodular_box():
        (a, b), (c, d) = A.entries
        if (a - 1) * (d - 1) - b * c == 0:
            continue  # b1 >= 2: the characteristic polynomial lives elsewhere
        p = torus_bundle(A)
        F = fox_matrix(p)
        assert F.abelianization.b1 == 1
        k0, delta = alexinv.first_order(F)
        assert k0 == 1
        assert delta == char_poly(A)
        checked += 1
    assert checked >= 50


def test_torus_bundle_obstruction_boundary_det_plus_one():
    """det = 1: OBSTRUCTED iff |trace| > 2 (eigenvalues off the unit circle);
    finite-order and parabolic monodromies give cyclotomic first orders."""
    for A in unimodular_box():
        if A.det != 1:
            continue
        rep = obstruct.qp_test(torus_bundle(A))
        if abs(A.trace) > 2:
            assert rep.verdict == obstruct.OBSTRUCTED, A
        else:
            assert rep.verdict != obstruct.OBSTRUCTED, A
            F = fox_matrix(torus_bundle(A))
            _, delta = alexinv.first_order(F)
            if delta.nvars == 1 and delta.support() != ((0,),):
                assert laurent.cyclotomic_decompose(delta).is_cyclotomic_product


def test_torus_bundle_obstruction_boundary_det_minus_one():
    # Orientation-reversing case: eigenvalues leave the unit circle exactly
    # when the trace is nonzero (lambda, -1/lambda real).
    for A in unimodular_box():
        if A.det != -1:
            continue
        rep = obstruct.qp_test(torus_bundle(A))
        if A.trace != 0:
            assert rep.verdict == obstruct.OBSTRUCTED, A
        else:
            assert rep.verdict == obstruct.INCONCLUSIVE, A  # b1 = 2 here


# -- torus knots --------------------------------------------------------------------


def test_torus_knot_examples():
    for (p, q), expected in (
        ((2, 3), T**2 - T + ONE),
        ((2, 5), T**4 - T**3 + T**2 - T + ONE),
    ):
        F = fox_matrix(torus_knot(p, q))
        assert alexinv.order_k(F, 1) == expected == torus_knot_closed_form(p, q)


def test_torus_knot_trivial_cases():
    F = fox_matrix(torus_knot(1, 7))
    assert alexinv.order_k(F, 1) == ONE
    with pytest.raises(DomainError):
        torus_knot(0, 3)


def test_torus_knot_closed_form_family():
    for p, q in ((2, 3), (2, 5), (3, 4), (2, 7), (3, 5)):
        F = fox_matrix(torus_knot(p, q))
        assert alexinv.order_k(F, 1) == torus_knot_closed_form(p, q)


# -- free-by-cyclic ------------------------------------------------------------------


def test_free_by_cyclic_fig8():
    p = free_by_cyclic([[(0, 1), (1, 1)], [(1, 1), (0, 1), (1, 1)]])
    F = fox_matrix(p)
    assert F.abelianization.b1 == 1
    _, delta = alexinv.first_order(F)
    assert delta == T**2 - LaurentPoly.constant(1, 3) * T + ONE


def test_free_by_cyclic_identity_on_z():
    p = free_by_cyclic([[(0, 1)]])
    F = fox_matrix(p)
    assert F.abelianization.b1 == 2
    assert alexinv.order_k(F, 1) == LaurentPoly.one(2)


def test_free_by_cyclic_klein_bottle():
    p = free_by_cyclic([[(0, -1)]])
    ab = abelianize(p)
    assert (ab.b1, ab.torsion) == (1, (2,))
    _, delta = alexinv.first_order(fox_matrix(p))
    assert delta == T + ONE  # Phi_2


def test_free_by_cyclic_rejects_undeclared_generator():
    with pytest.raises(DomainError):
        free_by_cyclic([[(1, 1)]])


def test_free_by_cyclic_char_poly_oracle():
    """b1 = 1 instances: first order = det(tI - M) up to unit, M the
    abelianized monodromy; 50 random positive image pairs on 2 letters."""
    rng = random.Random(4096)
    done = 0
    while done < 50:
        images = []
        M = [[0, 0], [0, 0]]
        for i in range(2):
            w = [(rng.randrange(2), 1) for _ in range(rng.randint(1, 4))]
            images.append(w)
            for g, e in w:
                M[g][i] += e
        if (M[0][0] - 1) * (M[1][1] - 1) - M[0][1] * M[1][0] == 0:
            continue  # b1 > 1
        p = free_by_cyclic(images)
        F = fox_matrix(p)
        assert F.abelianization.b1 == 1
        _, delta = alexinv.first_order(F)
        trace = M[0][0] + M[1][1]
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        expected = (
            T**2
            - LaurentPoly.constant(1, trace) * T
            + LaurentPoly.constant(1, det)
        ).canonical()
        assert delta == expected
        done += 1
