import random
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

import pytest

from alexlab import exactla
from alexlab.errors import DomainError
from alexlab.torusgeo import intersect, make_torus
from test_exactla import kernel_basis


# -- construction ---------------------------------------------------------------


def test_make_torus_examples():
    t = make_torus(2, [(2, 0)], [0, 0])
    assert t.equations == ((1, 0),)
    assert t.dim == 1
    t = make_torus(2, [], [Fraction(1, 2), 0])
    assert t.dim == 2
    t = make_torus(3, [(1, 0, 0), (0, 1, 0)], [0, 0, 0])
    assert t.dim == 1


def test_make_torus_reduces_dependent_rows():
    t = make_torus(3, [(1, 1, 0), (2, 2, 0), (0, 0, 1)], [0, 0, 0])
    assert len(t.equations) == 2


def test_make_torus_rejects_bad_input():
    with pytest.raises(DomainError):
        make_torus(2, [(1, 0, 0)], [0, 0])
    with pytest.raises(DomainError):
        make_torus(2, [(1, 0)], [0])
    with pytest.raises(DomainError):
        make_torus(2, [(1, 0)], [0.25, 0])  # float translate: not accepted


def test_make_torus_refuses_equation_entries_that_are_not_ints():
    # Refused, not truncated or parsed; a bool is taken as its int.
    for rows in ([(1.5, 0)], [("3", 0)]):
        with pytest.raises(DomainError):
            make_torus(2, rows, [0, 0])
    assert make_torus(2, [(False, True)], [0, 0]).equations == ((0, 1),)


def test_translate_reduced_mod_one():
    t = make_torus(1, [], [Fraction(7, 2)])
    assert t.translate == (Fraction(1, 2),)


# -- intersection examples --------------------------------------------------------


def test_intersect_basic_examples():
    t1 = make_torus(2, [(1, 0)], [Fraction(1, 2), 0])
    t2 = make_torus(2, [(0, 1)], [0, 0])
    rep = intersect(t1, t2)
    assert rep.meets and rep.dim == 0 and not rep.parallel

    t3 = make_torus(2, [(1, 0)], [0, 0])
    rep = intersect(t1, t3)
    assert rep.parallel and not rep.meets

    t4 = make_torus(2, [(1, 1)], [0, 0])
    t5 = make_torus(2, [(1, -1)], [0, 0])
    rep = intersect(t4, t5)
    # brute force: z1 z2 = 1 and z1 = z2 force z1^2 = 1, a finite set
    assert rep.meets and rep.dim == 0 and not rep.parallel


def test_intersect_ambient_mismatch():
    with pytest.raises(DomainError):
        intersect(make_torus(2, [], [0, 0]), make_torus(3, [], [0, 0, 0]))


# -- randomized coset-intersection instances ------------------------------------------------


def _random_torus(rng, n):
    k = rng.randint(0, n)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    denoms = (1, 2, 3, 6)
    q = [Fraction(rng.randint(0, 5), rng.choice(denoms)) for _ in range(n)]
    return make_torus(n, rows, q)


def _dual_dim(t1, t2) -> int:
    """Oracle: dimension of T1 cap T2 through the kernel parametrization."""
    def kernel(t):
        if not t.equations:
            return [tuple(1 if i == j else 0 for j in range(t.ambient)) for i in range(t.ambient)]
        return kernel_basis(t.equations)

    k1, k2 = kernel(t1), kernel(t2)
    r1 = len(k1)
    r2 = len(k2)
    stacked = k1 + k2
    rs = exactla.integer_rank(stacked)
    return r1 + r2 - rs


def _snf_solvable(t1, t2) -> bool:
    """Oracle: does a point of rho1 T1 cap rho2 T2 exist?  Solve the combined
    congruence system B w = c (mod Z) through the SNF of B."""
    rows = list(t1.equations) + list(t2.equations)
    cs = [sum(Fraction(u) * x for u, x in zip(row, t.translate)) for t, rows_ in ((t1, t1.equations), (t2, t2.equations)) for row in rows_]
    if not rows:
        return True
    U, diag, _ = exactla.smith_normal_form(rows)
    rank = sum(1 for d in diag if d)
    for i in range(len(rows)):
        if i >= rank:
            v = sum(Fraction(U[i][j]) * cs[j] for j in range(len(rows)))
            if v % 1 != 0:
                return False
    return True


def _torsion_points_of_coset(t, L):
    """All torsion points of order dividing L on the coset, as tuples mod 1."""
    if not t.equations:
        kernel = [tuple(1 if i == j else 0 for j in range(t.ambient)) for i in range(t.ambient)]
    else:
        kernel = kernel_basis(t.equations)
    d = len(kernel)
    for sigma in iproduct(range(L), repeat=d):
        w = list(t.translate)
        for s, vec in zip(sigma, kernel):
            for i, x in enumerate(vec):
                w[i] += Fraction(s * x, L)
        yield tuple(x % 1 for x in w)


def _member(point, t) -> bool:
    for u in t.equations:
        if sum(Fraction(c) * (x - q) for c, x, q in zip(u, point, t.translate)) % 1 != 0:
            return False
    return True


def test_random_pairs_dimension_and_nonemptiness():
    rng = random.Random(43210)
    brute_forced = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        t1 = _random_torus(rng, n)
        t2 = _random_torus(rng, n)
        rep = intersect(t1, t2)

        # dimension formula vs the dual parametrization
        if rep.meets:
            assert rep.dim == _dual_dim(t1, t2)

        # non-emptiness vs the combined-congruence solvability oracle
        assert rep.meets == _snf_solvable(t1, t2)

        # non-emptiness vs brute force over bounded-order torsion points:
        # a point of the intersection, when one exists, has order dividing
        # (lcm of translate orders) * (lcm of the combined system's
        # elementary divisors)
        rows = list(t1.equations) + list(t2.equations)
        divisors = []
        if rows:
            divisors = [d for d in exactla.smith_normal_form(rows)[1] if d]
        m_all = 1
        for x in t1.translate + t2.translate:
            m_all = m_all * x.denominator // gcd(m_all, x.denominator)
        dl = 1
        for d in divisors:
            dl = dl * d // gcd(dl, d)
        L = m_all * dl
        small, big = (t1, t2) if t1.dim <= t2.dim else (t2, t1)
        if L ** small.dim <= 20000:
            brute_forced += 1
            found = any(_member(pt, big) for pt in _torsion_points_of_coset(small, L))
            assert found == rep.meets
    assert brute_forced >= 150  # the brute-force leg must carry real weight


def test_parallel_and_incompatible_translate_means_empty():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 3)
        t1 = _random_torus(rng, n)
        t2 = make_torus(
            n,
            t1.equations,
            [x + Fraction(rng.randint(0, 5), 6) for x in t1.translate],
        )
        rep = intersect(t1, t2)
        assert rep.parallel
        if not rep.meets:
            # verify emptiness brute-force on a small grid
            assert not _snf_solvable(t1, t2)


# -- the codimension-one clash ----------------------------------------------------


def _primitive_vectors_3d():
    seen = set()
    for v in iproduct(range(-2, 3), repeat=3):
        if not any(v):
            continue
        g = 0
        for x in v:
            g = gcd(g, x)
        if g != 1:
            continue
        if tuple(-x for x in v) in seen:
            continue
        seen.add(v)
    return sorted(seen)


def test_codimension_one_clash_exhaustive():
    """Two non-parallel codimension-one subtori of a 3-torus always meet in
    dimension 1, translated or not."""
    vecs = _primitive_vectors_3d()
    rng = random.Random(99)
    zero = [0, 0, 0]
    for i, u in enumerate(vecs):
        for v in vecs[i + 1 :]:
            t1 = make_torus(3, [u], zero)
            t2 = make_torus(3, [v], zero)
            if t1.equations == t2.equations:
                continue  # parallel pair (proportional normals)
            rep = intersect(t1, t2)
            assert rep.meets and rep.dim == 1 and not rep.parallel
    # translated spot checks: the product torus is everything, so any
    # torsion translates still meet
    for _ in range(100):
        u, v = rng.sample(vecs, 2)
        if make_torus(3, [u], zero).equations == make_torus(3, [v], zero).equations:
            continue
        q1 = [Fraction(rng.randint(0, 5), 6) for _ in range(3)]
        q2 = [Fraction(rng.randint(0, 5), 6) for _ in range(3)]
        rep = intersect(make_torus(3, [u], q1), make_torus(3, [v], q2))
        assert rep.meets and rep.dim == 1
