import random
from fractions import Fraction

import pytest

from alexlab import alexinv
from alexlab.alexinv import CharacterPoint
from alexlab.errors import DomainError, LimitError
from alexlab.fpgroup import GroupPresentation, fox_matrix, free_product
from alexlab.laurent import LaurentPoly
from alexlab.obstruct import (
    CONSISTENT,
    INCONCLUSIVE,
    OBSTRUCTED,
    connected_sum_report,
    kahler_test,
    qp_test,
)

from corpus import ALL, F2, FIG8, SOL3, SUM_PAIRS, TREFOIL, TRIVIAL, WHITEHEAD, Z2_CYCLIC, ZZ

T = LaurentPoly.variable(1, 0)
ONE = LaurentPoly.one(1)
SOL_POLY = (T**2 - LaurentPoly.constant(1, 3) * T + ONE).canonical()


# -- Kahler test -------------------------------------------------------------------


def test_kahler_z2_consistent():
    rep = kahler_test(ZZ.presentation)
    assert rep.verdict == CONSISTENT
    assert rep.b1 == 2 and rep.thickness == 0
    assert not rep.witnesses


def test_kahler_trefoil_obstructed():
    rep = kahler_test(TREFOIL.presentation)
    assert rep.verdict == OBSTRUCTED
    assert any("odd" in w for w in rep.witnesses)
    assert rep.thickness == 1


def test_kahler_fig8_obstructed():
    rep = kahler_test(FIG8.presentation)
    assert rep.verdict == OBSTRUCTED
    assert any("non-constant" in w for w in rep.witnesses)


def test_kahler_odd_b1_always_obstructed():
    for entry in ALL:
        if entry.b1 % 2 == 1:
            assert kahler_test(entry.presentation).verdict == OBSTRUCTED, entry.name


def test_kahler_one_sidedness_f2():
    # F2 is famously not Kahler (free products are excluded), but that
    # criterion is not computed here: the report stays CONSISTENT.
    f2 = GroupPresentation(("a", "b"), ())
    assert kahler_test(f2).verdict == CONSISTENT


# -- quasi-projectivity test -----------------------------------------------------------


def test_qp_trefoil_consistent():
    rep = qp_test(TREFOIL.presentation)
    assert rep.verdict == CONSISTENT
    assert rep.per_k[0].delta == T**2 - T + ONE
    assert rep.per_k[0].cyclotomic == "yes"


def test_qp_sol_obstructed():
    rep = qp_test(SOL3.presentation)
    assert rep.verdict == OBSTRUCTED
    assert any("non-cyclotomic" in w for w in rep.witnesses)


def test_qp_b1_2_inconclusive():
    assert qp_test(ZZ.presentation).verdict == INCONCLUSIVE
    assert qp_test(WHITEHEAD.presentation).verdict == INCONCLUSIVE


def test_qp_newton_dim_witness():
    # double fig8 has b1 = 2 (hypothesis exclusion), so use a triple:
    # b1 = 3 and the Newton polytope of the first order is 3-dimensional
    triple = free_product(free_product(FIG8.presentation, FIG8.presentation), FIG8.presentation)
    rep = qp_test(triple, kmax=3)
    assert rep.verdict == OBSTRUCTED
    assert any("dimension" in w for w in rep.witnesses)


def test_qp_zero_order_passes():
    # F3: Delta^k = 0 for k < 3 and Delta^3 = 1; nothing obstructs
    f3 = GroupPresentation(("a", "b", "c"), ())
    rep = qp_test(f3, kmax=3)
    assert rep.verdict == CONSISTENT
    # k0 > kmax: no per-k findings, but k0 and the thickness still come
    # from Delta^{k0}
    for run in (qp_test, kahler_test):
        rep = run(f3, kmax=1)
        assert (rep.k0, rep.per_k, rep.thickness) == (3, (), 0), rep.test
    rep = connected_sum_report([F2.presentation, F2.presentation], kmax=1)
    assert rep.product_k0 == 4
    assert rep.product_delta == LaurentPoly.one(4)
    assert rep.qp.per_k == ()


def _apply_generator_automorphism(p, perm, signs):
    rels = tuple([(perm[g], e * signs[g]) for g, e in r] for r in p.relators)
    gens = tuple(p.generators[perm.index(i)] for i in range(len(p.generators)))
    return GroupPresentation(p.generators, rels)


def test_qp_invariance_under_basis_change():
    rng = random.Random(31)
    for entry in (TREFOIL, SOL3, FIG8, ZZ, WHITEHEAD):
        p = entry.presentation
        base = qp_test(p).verdict
        g = len(p.generators)
        for _ in range(4):
            perm = list(range(g))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(g)]
            q = _apply_generator_automorphism(p, perm, signs)
            assert qp_test(q).verdict == base, entry.name


def test_kmax_validation():
    for run in (kahler_test, qp_test):
        with pytest.raises(DomainError):
            run(TREFOIL.presentation, kmax=-1)
    with pytest.raises(DomainError):
        connected_sum_report([TREFOIL.presentation, FIG8.presentation], kmax=-1)
    F = fox_matrix(TREFOIL.presentation)
    for rho in (CharacterPoint((Fraction(1, 6),)), CharacterPoint((Fraction(0),))):
        for kmax in (-1, -2):
            with pytest.raises(DomainError):
                alexinv.cv_dim(F, rho, kmax=kmax)
        assert alexinv.cv_dim(F, rho, kmax=0).memberships == ()


def test_listing_bound_is_checked_before_any_work(monkeypatch):
    top = alexinv.MAX_LISTED_K
    p = TREFOIL.presentation
    F = fox_matrix(p)
    rho = CharacterPoint((Fraction(1, 6),))
    assert len(qp_test(p, kmax=top).per_k) == top  # k0 = 1
    assert len(alexinv.cv_dim(F, rho, kmax=top).memberships) == top

    def no_work(*args):
        raise AssertionError("work done before the listing bound was checked")

    for name in ("first_order", "order_k", "reduction", "rank_over_fractions"):
        monkeypatch.setattr(alexinv, name, no_work)
    monkeypatch.setattr("alexlab.obstruct.fox_matrix", no_work)
    monkeypatch.setattr("alexlab.obstruct.free_product_many", no_work)
    for kmax in (top + 1, 10**6):
        for run in (kahler_test, qp_test):
            with pytest.raises(LimitError, match="kmax %d" % kmax):
                run(p, kmax=kmax)
        with pytest.raises(LimitError):
            connected_sum_report([p, FIG8.presentation], kmax=kmax)
        with pytest.raises(LimitError):
            alexinv.order_sequence(F, kmax)
        for rho in (CharacterPoint((Fraction(1, 6),)), CharacterPoint((Fraction(0),))):
            with pytest.raises(LimitError):
                alexinv.cv_dim(F, rho, kmax=kmax)


def test_reported_orders_are_nonzero():
    # Every reported Delta^k has k >= k0, where a nonzero rank-sized minor
    # expands into nonzero smaller minors: no report carries a zero order.
    for entry in ALL:
        F = fox_matrix(entry.presentation)
        assert not alexinv.first_order(F)[1].is_zero(), entry.name
        for run in (kahler_test, qp_test):
            rep = run(entry.presentation)
            assert [f.k for f in rep.per_k] == list(range(rep.k0, rep.kmax + 1))
            for f in rep.per_k:
                assert not f.delta.is_zero(), (entry.name, rep.test, f.k)
    for a, b in SUM_PAIRS:
        rep = connected_sum_report([a.presentation, b.presentation])
        assert not rep.product_delta.is_zero()
        assert all(not f.delta.is_zero() for f in rep.qp.per_k), (a.name, b.name)


def _count_calls(monkeypatch):
    """Wrap the rank and order_k so each call records its matrix width and k."""
    calls = {"rank": [], "order_k": []}
    rank, order_k = alexinv.rank_over_fractions, alexinv.order_k

    def counted_rank(F):
        calls["rank"].append(F.cols)
        return rank(F)

    def counted_order_k(F, k):
        calls["order_k"].append((F.cols, k))
        return order_k(F, k)

    monkeypatch.setattr(alexinv, "rank_over_fractions", counted_rank)
    monkeypatch.setattr(alexinv, "order_k", counted_order_k)
    return calls


def test_order_data_computed_once_per_call(monkeypatch):
    calls = _count_calls(monkeypatch)
    for entry in (TREFOIL, SOL3):
        for run in (kahler_test, qp_test):
            calls["rank"].clear()
            calls["order_k"].clear()
            run(entry.presentation)
            assert len(calls["rank"]) == 1, (entry.name, run.__name__)
            ks = calls["order_k"]
            assert len(ks) == len(set(ks)), (entry.name, run.__name__, ks)


def test_connected_sum_ranks_product_once(monkeypatch):
    calls = _count_calls(monkeypatch)
    rep = connected_sum_report([TREFOIL.presentation, FIG8.presentation])
    width = len(rep.product.generators)
    assert calls["rank"].count(width) == 1


def test_obstructed_reports_carry_witnesses():
    for entry in ALL:
        for run in (kahler_test, qp_test):
            rep = run(entry.presentation)
            if rep.verdict == OBSTRUCTED:
                assert rep.witnesses, (entry.name, rep.test)
            if rep.verdict == CONSISTENT:
                assert not rep.witnesses, (entry.name, rep.test)


# -- connected sums ----------------------------------------------------------------


def test_sum_needs_two():
    with pytest.raises(DomainError):
        connected_sum_report([TREFOIL.presentation])


def test_sum_trefoil_with_trivial():
    rep = connected_sum_report([TREFOIL.presentation, TRIVIAL.presentation])
    assert rep.product_delta == T**2 - T + ONE
    assert rep.product_thickness == 1
    assert rep.thickness_additive and rep.delta_divisible
    assert rep.qp.verdict == CONSISTENT


def test_sum_sol_with_z2_reproduces_factor_two():
    rep = connected_sum_report([SOL3.presentation, Z2_CYCLIC.presentation])
    assert rep.product_delta == SOL_POLY.scale(2)
    assert rep.qp.verdict == OBSTRUCTED
    assert rep.factors[1].delta == LaurentPoly.constant(0, 2)


def test_sum_double_fig8():
    rep = connected_sum_report([FIG8.presentation, FIG8.presentation])
    assert [f.thickness for f in rep.factors] == [1, 1]
    assert rep.product_thickness == 2
    assert rep.thickness_additive and rep.delta_divisible


def test_thickness_additivity_on_corpus_pairs():
    for e1, e2 in SUM_PAIRS:
        rep = connected_sum_report([e1.presentation, e2.presentation])
        assert rep.thickness_additive, (e1.name, e2.name)
        assert rep.delta_divisible, (e1.name, e2.name)


def test_triple_sum():
    rep = connected_sum_report(
        [TREFOIL.presentation, Z2_CYCLIC.presentation, Z2_CYCLIC.presentation]
    )
    assert rep.product_thickness == 1
    assert rep.thickness_additive and rep.delta_divisible
    # both RP^3-style factors contribute their order: 4 * trefoil
    assert rep.product_delta == (T**2 - T + ONE).scale(4)
