"""Necessary-condition tests: can this group be a Kahler group, or a
quasi-projective group?

Both tests check what the order polynomials of the group must look like and
report OBSTRUCTED with witnesses when they fail.  CONSISTENT only means no
computed condition failed; it is never a sufficiency claim.
"""

from __future__ import annotations

from . import alexinv, exactla, laurent
from ._value import Value
from .errors import DomainError
from .fpgroup import FoxMatrix, GroupPresentation, fox_matrix, free_product_many
from .laurent import LaurentPoly

DEFAULT_KMAX = 3

OBSTRUCTED = "OBSTRUCTED"
CONSISTENT = "CONSISTENT"
INCONCLUSIVE = "INCONCLUSIVE"


class PerKFinding(Value):
    """The finding at one k >= k0: `delta` is Delta^k, canonical and nonzero;
    `cyclotomic` is "yes", "no" or "n/a"; `remainder` is the non-cyclotomic
    part, when computed, else None."""

    __slots__ = _fields = ("k", "delta", "newton_dim", "cyclotomic", "remainder")


class ObstructionReport(Value):
    """`test` is "kahler" or "qp"; `per_k` holds a `PerKFinding` per k."""

    __slots__ = _fields = (
        "test", "b1", "k0", "kmax", "per_k", "thickness", "verdict", "witnesses"
    )


def _order_data(F: FoxMatrix, kmax: int):
    """k0, the thickness (the Newton dimension of Delta^{k0}), and
    (k, Delta^k, its Newton dimension) for k0 <= k <= kmax, each read from
    the memos on F's reduction."""
    k0, delta0 = alexinv.first_order(F)
    deltas = [delta0] + [alexinv.order_k(F, k) for k in range(k0 + 1, kmax + 1)]
    per_k = [(k, d, alexinv.order_newton_dim(F, k)) for k, d in zip(range(k0, kmax + 1), deltas)]
    return k0, alexinv.order_newton_dim(F, k0), per_k


def kahler_test(p: GroupPresentation, kmax: int = DEFAULT_KMAX) -> ObstructionReport:
    """A Kahler group has even b1 and constant order polynomials, hence
    thickness 0.  Any failure is an obstruction witness."""
    alexinv.check_listed_k(kmax)
    F = fox_matrix(p)
    k0, th, orders = _order_data(F, kmax)
    b1 = F.abelianization.b1
    witnesses = []
    if b1 % 2 == 1:
        witnesses.append("b1 = %d is odd" % b1)
    per_k = []
    for k, delta, nd in orders:
        per_k.append(PerKFinding(k, delta, nd, "n/a", None))
        if nd > 0:
            witnesses.append("Delta^%d = %s is non-constant" % (k, delta.text()))
    if th > 0:
        witnesses.append("thickness %d > 0" % th)
    verdict = OBSTRUCTED if witnesses else CONSISTENT
    return ObstructionReport("kahler", b1, k0, kmax, tuple(per_k), th, verdict, tuple(witnesses))


def qp_test(p: GroupPresentation, kmax: int = DEFAULT_KMAX) -> ObstructionReport:
    """A quasi-projective group with b1 != 2 has order polynomials whose
    Newton polytope is a point or a segment, carried by a cyclotomic-product
    univariate polynomial.  b1 = 2 is outside the test's hypothesis and
    reports INCONCLUSIVE."""
    alexinv.check_listed_k(kmax)
    F = fox_matrix(p)
    b1 = F.abelianization.b1
    k0, th, orders = _order_data(F, kmax)
    witnesses = []
    per_k = []
    for k, delta, nd in orders:
        if nd >= 2:
            per_k.append(PerKFinding(k, delta, nd, "n/a", None))
            witnesses.append(
                "Newton polytope of Delta^%d has dimension %d > 1" % (k, nd)
            )
            continue
        uf = laurent.line_support(delta)
        dec = laurent.cyclotomic_decompose(uf.poly)
        if dec.is_cyclotomic_product:
            per_k.append(PerKFinding(k, delta, nd, "yes", None))
        else:
            rem = dec.remainder.canonical()
            per_k.append(PerKFinding(k, delta, nd, "no", rem))
            witnesses.append("non-cyclotomic factor %s" % rem.text())
    if b1 == 2:
        verdict = INCONCLUSIVE
        witnesses = ["b1 = 2 is outside the hypothesis of the test"] + witnesses
    else:
        verdict = OBSTRUCTED if witnesses else CONSISTENT
    return ObstructionReport("qp", b1, k0, kmax, tuple(per_k), th, verdict, tuple(witnesses))


# -- connected sums (free products) --------------------------------------------


class FactorSummary(Value):
    __slots__ = _fields = ("b1", "k0", "delta", "thickness")


class ConnectedSumReport(Value):
    __slots__ = _fields = (
        "factors", "product", "product_b1", "product_k0", "product_delta",
        "product_thickness", "thickness_additive", "delta_divisible", "qp",
    )


def _inclusion_rows(factor_images, product_images, b1_factor: int, b1_product: int):
    """Rows of the matrix of the induced inclusion H_factor -> H_product,
    solved from the generator images (which generate H_factor)."""
    if b1_factor == 0:
        return [()] * b1_product
    MT = exactla.solve_integer(factor_images, product_images)
    if MT is None:
        raise DomainError("no integral inclusion matrix; inconsistent abelianizations")
    return list(zip(*MT))


def connected_sum_report(ps, kmax: int = DEFAULT_KMAX) -> ConnectedSumReport:
    """Free product of the given presentations: factor and product first
    orders and thicknesses, the additivity and divisibility checks, and the
    quasi-projectivity test of the product."""
    alexinv.check_listed_k(kmax)
    ps = list(ps)
    if len(ps) < 2:
        raise DomainError("connected sum needs at least two presentations")
    product = free_product_many(ps)
    # The product's Fox matrix and orders are kept on `product`: the
    # quasi-projectivity test computes them, and the checks below reuse them.
    qp = qp_test(product, kmax)
    prod_F = fox_matrix(product)
    prod_ab = prod_F.abelianization
    prod_delta = alexinv.order_k(prod_F, qp.k0)

    factors = []
    embedded = LaurentPoly.one(prod_ab.b1)
    offset = 0
    for p in ps:
        F = fox_matrix(p)
        ab = F.abelianization
        k0, delta = alexinv.first_order(F)
        th = alexinv.order_newton_dim(F, k0)
        factors.append(FactorSummary(ab.b1, k0, delta, th))
        g = len(p.generators)
        rows = _inclusion_rows(
            ab.images,
            [prod_ab.images[offset + j] for j in range(g)],
            ab.b1,
            prod_ab.b1,
        )
        embedded = embedded * laurent.apply_exponent_map(delta, rows, prod_ab.b1)
        offset += g

    additive = qp.thickness == sum(f.thickness for f in factors)
    divisible = laurent.divides(embedded.canonical(), prod_delta)
    return ConnectedSumReport(
        tuple(factors),
        product,
        prod_ab.b1,
        qp.k0,
        prod_delta,
        qp.thickness,
        additive,
        divisible,
        qp,
    )
