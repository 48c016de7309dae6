"""Acceptance suite: one test per criterion, each printing a pass line.

Run visibly with:  pytest tests/test_acceptance.py -v -s
"""

import random
from fractions import Fraction

from alexlab import alexinv, cli, fpgroup, laurent, norms
from alexlab.alexinv import CharacterPoint, cv_dim, first_order, order_k
from alexlab.builders import MonodromyMatrix, torus_bundle, torus_knot
from alexlab.fpgroup import fox_matrix
from alexlab.laurent import LaurentPoly
from alexlab.norms import CohomologyClass, FiberedDatum, mcmullen_check, support_polytope
from alexlab.obstruct import CONSISTENT, OBSTRUCTED, connected_sum_report, kahler_test, qp_test

from corpus import ALL, FIG8, KLEIN, SOL3, SUM_PAIRS, TREFOIL, ZZ
from cyclo_ref import Cyclo
import test_exactla
import test_torusgeo
from test_builders import torus_knot_closed_form, unimodular_box

T = LaurentPoly.variable(1, 0)
ONE = LaurentPoly.one(1)


def _ok(n, msg):
    print("criterion %d: PASS - %s" % (n, msg))


def test_criterion_01_trefoil(tmp_path, capsys):
    f = tmp_path / "trefoil.fp"
    f.write_text("gens a b\nrel a^2 b^-3\n")
    code = cli.run(["delta", str(f), "--k", "1"])
    out = capsys.readouterr().out
    assert (code, out) == (0, "t^2 - t + 1\n")

    # oracle recorded in the build contract: gcd(1 + t^3, 1 + t^2 + t^4)
    F = fox_matrix(TREFOIL.presentation)
    assert F.entries[0][0] == ONE + T**3
    assert F.entries[0][1] == -(ONE + T**2 + T**4)
    delta = laurent.gcd(ONE + T**3, ONE + T**2 + T**4)
    assert delta == T**2 - T + ONE == order_k(F, 1)

    dec = laurent.cyclotomic_decompose(delta)
    assert (dec.content, dec.factors) == (1, ((6, 1),))
    assert dec.is_cyclotomic_product

    assert qp_test(TREFOIL.presentation).verdict == CONSISTENT
    _ok(1, "trefoil delta, Phi_6 decomposition, qp CONSISTENT")


def test_criterion_02_torus_knots():
    for p, q in ((2, 3), (2, 5), (3, 4)):
        F = fox_matrix(torus_knot(p, q))
        assert order_k(F, 1) == torus_knot_closed_form(p, q), (p, q)
    _ok(2, "torus knot deltas match the closed formula exactly")


def test_criterion_03_example_8_2():
    k0, delta = first_order(fox_matrix(SOL3.presentation))
    assert (k0, delta) == (1, T**2 - LaurentPoly.constant(1, 3) * T + ONE)
    rep = qp_test(SOL3.presentation)
    assert rep.verdict == OBSTRUCTED
    assert any("non-cyclotomic" in w for w in rep.witnesses)

    rot = torus_bundle(MonodromyMatrix.of(0, -1, 1, 0))
    _, dated = first_order(fox_matrix(rot))
    assert laurent.cyclotomic_decompose(dated).is_cyclotomic_product
    assert qp_test(rot).verdict != OBSTRUCTED

    # exhaustive SL2 sweep, entries in [-2, 2]
    for A in unimodular_box():
        if A.det != 1:
            continue
        verdict = qp_test(torus_bundle(A)).verdict
        assert (verdict == OBSTRUCTED) == (abs(A.trace) > 2), A
    _ok(3, "Sol bundle obstructed, rotation bundle clean, SL2 sweep agrees")


def test_criterion_04_factor_two():
    rp3 = fpgroup.parse_presentation("gens x\nrel x^2\n")
    rep = connected_sum_report([SOL3.presentation, rp3])
    expected = (T**2 - LaurentPoly.constant(1, 3) * T + ONE).scale(2)
    assert rep.product_delta == expected.canonical()
    assert rep.qp.verdict == OBSTRUCTED
    _ok(4, "free product with Z/2 carries delta 2(t^2 - 3t + 1), OBSTRUCTED")


def test_criterion_05_thickness_additivity():
    assert len(SUM_PAIRS) == 10
    for e1, e2 in SUM_PAIRS:
        rep = connected_sum_report([e1.presentation, e2.presentation])
        assert rep.product_thickness == rep.factors[0].thickness + rep.factors[1].thickness, (
            e1.name,
            e2.name,
        )
        assert rep.delta_divisible, (e1.name, e2.name)
    _ok(5, "thickness adds and deltas divide on all 10 corpus pairs")


def test_criterion_06_kahler():
    assert kahler_test(ZZ.presentation).verdict == CONSISTENT
    for entry in ALL:
        if entry.b1 % 2 == 1:
            assert kahler_test(entry.presentation).verdict == OBSTRUCTED, entry.name
    for entry in (TREFOIL, FIG8):
        assert entry.fibered and entry.fiber_chi < 0
        assert alexinv.thickness(fox_matrix(entry.presentation)) >= 1, entry.name
    _ok(6, "Z^2 consistent, odd b1 obstructed, negative-chi fibers are thick")


def test_criterion_07_hironaka():
    for entry in (TREFOIL, KLEIN):
        F = fox_matrix(entry.presentation)
        _, delta = first_order(F)
        mismatches = 0
        seen = set()
        for m in range(2, 13):
            for j in range(1, m):
                rho = CharacterPoint((Fraction(j, m),))
                if rho in seen:
                    continue
                seen.add(rho)
                jump = cv_dim(F, rho).dim >= 1
                vanish = Cyclo.at(delta, rho.rho).is_zero()
                if jump != vanish:
                    mismatches += 1
        assert mismatches == 0, entry.name
    _ok(7, "jump loci match delta vanishing at every order <= 12 character")


def test_criterion_08_torus_geometry():
    test_torusgeo.test_random_pairs_dimension_and_nonemptiness()
    test_torusgeo.test_codimension_one_clash_exhaustive()
    _ok(8, "200 coset-intersection instances and the codim-1 sweep all agree")


def test_criterion_09_exact_linear_algebra():
    test_exactla.test_snf_random_500()
    _ok(9, "500 SNF instances: transforms, divisibility, determinantal divisors")


def test_criterion_10_norms():
    rng = random.Random(1010)
    for entry in ALL:
        F = fox_matrix(entry.presentation)
        _, delta = first_order(F)
        if delta.is_zero() or delta.nvars > 4:
            continue
        ball = support_polytope(delta)
        for _ in range(8):
            phi = CohomologyClass.of([rng.randint(-5, 5) for _ in range(delta.nvars)])
            widths = [sum(p * x for p, x in zip(phi.phi, v)) for v in ball.vertices]
            by_ball = max(widths) if widths else 0
            assert norms.alexander_norm(delta, phi) == by_ball, entry.name
        if delta.nvars:
            base = CohomologyClass.of([1] * delta.nvars)
            nb = norms.alexander_norm(delta, base)
            for k in range(-5, 6):
                scaled = CohomologyClass.of([k] * delta.nvars)
                assert norms.alexander_norm(delta, scaled) == abs(k) * nb

    hexagon = LaurentPoly(2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)])
    rep = mcmullen_check(hexagon, [FiberedDatum(CohomologyClass.of([1, 0]), 1, True)])
    assert rep.entries[0].status == "PASS"
    rep = mcmullen_check(hexagon, [FiberedDatum(CohomologyClass.of([1, 0]), 0, False)])
    assert rep.entries[0].status == "FAIL"
    rep = mcmullen_check(hexagon, [FiberedDatum(CohomologyClass.of([1, 1]), 2, True)])
    assert rep.entries[0].status == "FAIL"
    _ok(10, "norm recomputation, homogeneity, and the McMullen harness agree")
