"""The three workloads: how each builds its seeded pool of requests, how a
request is executed, and how its answer is checked.

A request is a JSON-able spec.  Its key is a digest of the spec, so the
recorded answer digests can be looked up for any seed that produces the
same input.  Pools interleave their input kinds round-robin, so any prefix
of a pool (a run stops when its time is up) has the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import families as fam
import reference as ref


def _interleave(*groups):
    return [r for row in zip_longest(*groups) for r in row if r is not None]


def _stratified(rng, options, n: int) -> list:
    """n draws from options given in order of size: the k-th draw comes
    from the k-th of n equal slices, so every pool holds the same spread
    of sizes whatever the seed."""
    out = []
    for k in range(n):
        lo = k * len(options) // n
        out.append(rng.choice(options[lo : max((k + 1) * len(options) // n, lo + 1)]))
    return out


def _request(kind: str, spec: dict) -> dict:
    spec = dict(spec, kind=kind)
    return {"kind": kind, "key": ref.digest(spec), "spec": spec}


# -- survey: the full per-group analysis, many small groups -------------------

SURVEY_PER_FAMILY = 24
# A three-factor product costs five to ten two-factor ones; a fixed number per
# pool keeps the pool's total cost from varying with the seed.
SURVEY_TRIPLE_PRODUCTS = 1
ELLIPTIC = ((0, -1, 1, 0), (0, -1, 1, 1), (-1, -1, 1, 0), (0, 1, -1, -1))
PARABOLIC = ((1, 1, 0, 1), (1, 2, 0, 1), (-1, 1, 0, -1), (1, 0, 3, 1))
ANOSOV = ((2, 1, 1, 1), (3, 1, 2, 1), (1, 1, 1, 0), (3, 2, 1, 1), (0, 1, 1, 3), (4, 1, -1, 0))


def _conjugate(rng, m):
    """Conjugate a 2x2 integer matrix by a random elementary matrix, which
    keeps its trace and determinant (so its elliptic, parabolic or Anosov
    type) while changing the presentation."""
    a, b, c, d = m
    k = rng.choice((-1, 1))
    if rng.random() < 0.5:  # [[1,k],[0,1]] m [[1,-k],[0,1]]
        return (a + k * c, b + k * d - k * (a + k * c), c, d - k * c)
    # [[1,0],[k,1]] m [[1,0],[-k,1]]
    return (a - k * b, b, c + k * a - k * (k * b + d), d + k * b)


def _char(rng, nvars: int):
    """A nontrivial character of order at most 6."""
    d = rng.randint(2, 6)
    while True:
        rho = [Fraction(rng.randrange(d), d) for _ in range(nvars)]
        if any(rho):
            return [str(x) for x in rho]


def _torus_spec(rng, n: int):
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    d = rng.randint(1, 6)
    return {"rows": rows, "q": [str(Fraction(rng.randrange(d), d)) for _ in range(n)]}


# Factor types of the two-factor products, cycled in this order: the
# survey's p90 falls among the products, so every pool has the same mix.
PRODUCT_PAIRS = (
    ("trefoil", "twist"),
    ("twist", "twist"),
    ("trefoil", "trefoil"),
    ("trefoil", "t25"),
    ("twist", "t25"),
    ("twist", "trefoil"),
)


def _factor(rng, kind: str):
    """A small free-product factor: the trefoil, T(2,5) or a twist knot."""
    if kind == "trefoil":
        return fam.torus_knot(2, 3)
    if kind == "t25":
        return fam.torus_knot(2, 5)
    return fam.two_bridge(rng.choice((5, 7)), 2)


def survey_pool(seed: int) -> list:
    rng = random.Random("survey:%d" % seed)
    n = SURVEY_PER_FAMILY
    knots, bundles, fbc, links, products = [], [], [], [], []
    pairs = sorted(fam.coprime_pairs(9, 6, 40), key=lambda pq: pq[0] * pq[1])
    for p, q in _stratified(rng, pairs, n):
        knots.append(("torus_knot", fam.torus_knot(p, q), {"knot": [p, q]}))
    for i in range(n):
        base = rng.choice((ELLIPTIC, PARABOLIC, ANOSOV)[i % 3])
        m = base
        for _ in range(rng.randint(0, 2)):
            m = _conjugate(rng, m)
        bundles.append(("torus_bundle", fam.torus_bundle(*m), {"matrix": list(m)}))
    for i in range(n):
        m = 2 + i % 3  # ranks 2, 3 and 4 in equal shares
        images = fam.random_automorphism(rng, m, 1 + i // 3 % 3)
        fbc.append(("free_by_cyclic", fam.free_by_cyclic(images), {}))
    link_params = [(p, q) for p in range(4, 17, 2) for q in range(1, p, 2) if gcd(p, q) == 1]
    for p, q in _stratified(rng, link_params, n):
        links.append(("two_bridge_link", fam.two_bridge(p, q), {"bridge": [p, q]}))
    for i in range(n):
        if i % (n // SURVEY_TRIPLE_PRODUCTS) == 0:
            factors = [fam.torus_knot(2, 3)] * 2 + [_factor(rng, rng.choice(("trefoil", "twist")))]
        else:
            factors = [_factor(rng, kind) for kind in PRODUCT_PAIRS[i % len(PRODUCT_PAIRS)]]
        rng.shuffle(factors)
        products.append(
            ("free_product", fam.free_product(factors), {"factors": [fam.fp_text(*f) for f in factors]})
        )
    out = []
    for kind, (names, rels), extra in _interleave(knots, bundles, fbc, links, products):
        b1 = fam.b1_of(len(names), rels)
        spec = dict(extra, fp=fam.fp_text(names, rels), b1=b1, max_exp=fam.max_exponent(rels))
        spec["chars"] = [_char(rng, b1) for _ in range(2)] if b1 else []
        spec["phis"] = (
            [[rng.choice((-2, -1, 1, 2)) for _ in range(b1)] for _ in range(2)] if b1 >= 2 else []
        )
        amb = min(max(b1, 2), 3)
        spec["tori"] = [[_torus_spec(rng, amb), _torus_spec(rng, amb)] for _ in range(2)]
        out.append(_request(kind, spec))
    return out


def run_survey(ax, spec) -> dict:
    p = ax.fpgroup.parse_presentation(spec["fp"])
    doc = {
        "kahler": ref.report_doc(ax.obstruct.kahler_test(p)),
        "qp": ref.report_doc(ax.obstruct.qp_test(p)),
    }
    F = ax.fpgroup.fox_matrix(p)
    cv = []
    for rho in spec["chars"]:
        point = ax.alexinv.CharacterPoint(tuple(Fraction(x) for x in rho))
        rep = ax.alexinv.cv_dim(F, point)
        cv.append({"dim": rep.dim, "memberships": list(rep.memberships), "order": point.order})
    doc["cv"] = cv
    if spec["phis"]:
        _, delta = ax.alexinv.first_order(F)
        doc["norms"] = [
            ax.norms.alexander_norm(delta, ax.norms.CohomologyClass.of(phi)) for phi in spec["phis"]
        ]
    if "factors" in spec:
        factors = [ax.fpgroup.parse_presentation(t) for t in spec["factors"]]
        doc["sum"] = ref.sum_doc(ax.obstruct.connected_sum_report(factors))
    tori = []
    for s1, s2 in spec["tori"]:
        t1, t2 = (
            ax.torusgeo.make_torus(len(s["q"]), s["rows"], [Fraction(x) for x in s["q"]])
            for s in (s1, s2)
        )
        rep = ax.torusgeo.intersect(t1, t2)
        tori.append({"meets": rep.meets, "dim": rep.dim, "parallel": rep.parallel})
    doc["tori"] = tori
    return doc


def check_survey(spec, doc) -> str | None:
    """Closed-form check of torus knots: Delta^1 and cv dimensions."""
    if "knot" not in spec:
        return None
    p, q = spec["knot"]
    want = ref.univariate_doc(ref.torus_knot_delta(p, q))
    for test in ("kahler", "qp"):
        got = doc[test]["per_k"][0]
        if doc[test]["k0"] != 1 or got["k"] != 1 or got["delta"] != want:
            return "%s Delta^1 of T(%d,%d) differs from the closed form" % (test, p, q)
    for rho, cv in zip(spec["chars"], doc["cv"]):
        x = Fraction(rho[0])
        if cv["dim"] != ref.knot_cv_dim(p, q, x.numerator, x.denominator):
            return "cv dim of T(%d,%d) at %s differs from the closed form" % (p, q, rho[0])
    return None


# -- orders_multivar: the thickness question at b1 = 2..4 ----------------------

ORDERS_PER_KIND = 48
# Free products of torus knots, by factor multiset.  Each pool cycles
# through these strata (the seed orders the factors), so the share of the
# slow four-factor products is the same for every seed.
KNOT_PRODUCT_STRATA = (
    ((2, 3), (2, 3), (2, 3)),
    ((2, 3), (2, 3), (2, 5)),
    ((2, 3), (2, 5), (3, 4)),
    ((2, 5), (2, 5), (2, 5)),
    ((2, 3), (3, 4), (2, 7)),
    ((2, 3), (2, 3), (3, 4)),
    ((2, 3), (2, 5), (2, 5)),
    ((2, 3), (2, 3), (2, 3), (2, 3)),
)


def _random_presentations(n: int) -> list:
    """The random presentations of every pool, drawn once: a few of them in
    a hundred take a hundred times the median (the gcd's slow tail), and a
    pool drawn afresh for each seed would carry a different share of them."""
    rng = random.Random("orders_multivar:random presentations")
    out = []
    while len(out) < n:
        g = 4 if len(out) % 2 == 0 else 5
        lo, hi = (7, 10) if g == 4 else (5, 6)
        rels = [fam.random_word(rng, g, rng.randint(lo, hi)) for _ in range(g - 2)]
        if fam.b1_of(g, rels) == 2:  # b1 = g - r: relators independent in H_1
            out.append((g, rels))
    return out


def _same_group(rng, rels) -> list:
    """Another presentation of the same group: each relator cyclically
    rotated (a conjugate) and perhaps inverted, in a shuffled order."""
    out = []
    for r in rels:
        k = rng.randrange(len(r))
        r = r[k:] + r[:k]
        out.append(fam.inverse(r) if rng.random() < 0.5 else r)
    rng.shuffle(out)
    return out


def orders_pool(seed: int) -> list:
    """Half random presentations (alternately 4 and 5 generators), a quarter
    knot products, a quarter free-by-cyclic groups: with the fast kinds at
    three quarters, the median request lies inside their bulk rather than
    in their tail.  A multiple of the strata, and short enough that a run
    makes several rounds over it.  The seed rewrites the fixed random
    presentations, orders the knot factors and draws the free-by-cyclic
    groups."""
    rng = random.Random("orders_multivar:%d" % seed)
    n = ORDERS_PER_KIND
    randoms, products, fbc = [], [], []
    for g, rels in _random_presentations(2 * n):
        names = ["x%d" % (i + 1) for i in range(g)]
        randoms.append(("random", (names, _same_group(rng, rels)), {}))
    for i in range(n):
        pqs = list(KNOT_PRODUCT_STRATA[i % len(KNOT_PRODUCT_STRATA)])
        rng.shuffle(pqs)
        group = fam.free_product([fam.torus_knot(p, q) for p, q in pqs])
        products.append(("knot_product", group, {"knots": [list(x) for x in pqs]}))
    while len(fbc) < n:
        m = rng.randint(4, 5)
        images = fam.random_automorphism(rng, m, rng.randint(3, 6), fixed=(rng.randrange(m),))
        names, rels = fam.free_by_cyclic(images)
        if fam.b1_of(len(names), rels) >= 2:
            fbc.append(("free_by_cyclic", (names, rels), {}))
    out = []
    for kind, (names, rels), extra in _interleave(randoms[::2], products, randoms[1::2], fbc):
        spec = dict(
            extra,
            fp=fam.fp_text(names, rels),
            b1=fam.b1_of(len(names), rels),
            max_exp=fam.max_exponent(rels),
        )
        out.append(_request(kind, spec))
    return out


def run_orders(ax, spec) -> dict:
    p = ax.fpgroup.parse_presentation(spec["fp"])
    F = ax.fpgroup.fox_matrix(p)
    k0, delta = ax.alexinv.first_order(F)
    th = ax.laurent.newton_dim(delta)
    return {"k0": k0, "delta": delta.canonical().to_doc(), "thickness": th}


def check_orders(spec, doc) -> str | None:
    """Free products of n torus knots: k0 = thickness = n, and Delta is the
    product of the factors' polynomials in independent variables, so its
    coefficients (up to sign) are the pairwise products."""
    if "knots" not in spec:
        return None
    n = len(spec["knots"])
    want = ref.product_coefficients([ref.torus_knot_delta(p, q) for p, q in spec["knots"]])
    if doc["k0"] != n or doc["thickness"] != n or ref.doc_coefficients(doc["delta"]) != want:
        return "free product of torus knots %s differs from the closed form" % spec["knots"]
    return None


# -- cli_sidepaths: one CLI command per request, caches emptied -------------

CLI_PER_COMMAND = 12  # a multiple of len(CV_ORDERS)
CV_ORDERS = (60, 210, 600)
RESONANT = {  # torus knots with a root of Delta of the given order
    60: ((4, 15), (3, 20), (5, 12)),
    210: ((6, 35), (10, 21), (14, 15)),
    600: ((8, 75), (24, 25), (3, 200)),
}
TWIST = (3, 5, 7, 9, 11, 13, 15)


def cli_pool(seed: int) -> list:
    rng = random.Random("cli_sidepaths:%d" % seed)
    n = CLI_PER_COMMAND
    qp, cv, ball, delta = [], [], [], []
    pairs = sorted(fam.coprime_pairs(20, 40, 100), key=lambda pq: pq[0] * pq[1])
    for p, q in _stratified(rng, pairs, n):
        qp.append(("qp", fam.torus_knot(p, q), ["test", "qp"], [], {"knot": [p, q]}))
    small = fam.coprime_pairs(9, 6, 72)
    for i in range(n):
        m = CV_ORDERS[i % 3]
        p, q = rng.choice(RESONANT[m]) if i // 3 % 2 == 0 else rng.choice(small)
        k = rng.choice([k for k in range(1, m) if gcd(k, m) == 1])
        rho = "%d/%d" % (k, m)
        cv.append(("cv", fam.torus_knot(p, q), ["cv"], ["--rho", rho], {"knot": [p, q], "rho": rho}))
    twist_pairs = sorted(((a, b) for a in TWIST for b in TWIST), key=sum)
    for p1, p2 in _stratified(rng, twist_pairs, n):
        group = fam.free_product([fam.two_bridge(p1, 2), fam.two_bridge(p2, 2)])
        ball.append(("ball", group, ["ball"], [], {"twist": [p1, p2]}))
    for e in _stratified(rng, range(200, 401), n):
        delta.append(("delta", (["a", "b"], [[(0, e), (1, -e)]]), ["delta"], ["--k", "1"], {"power": e}))
    out = []
    for kind, (names, rels), cmd, opts, extra in _interleave(qp, cv, ball, delta):
        spec = dict(
            extra,
            fp=fam.fp_text(names, rels),
            cmd=cmd,
            opts=opts,
            b1=fam.b1_of(len(names), rels),
            max_exp=fam.max_exponent(rels),
        )
        out.append(_request(kind, spec))
    return out


def cli_argv(spec, path: str) -> list:
    """alexlab arguments of a request whose input is written to path."""
    return spec["cmd"] + [path] + spec["opts"] + ["--machine"]


def run_cli(ax, argv, caches) -> dict:
    """One `alexlab` command through alexlab.cli.run, in this process, with
    every cache in `caches` emptied first; raises unless it exits with 0."""
    for f in caches:
        f.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ax.cli.run(argv)
    if code != 0:
        raise RuntimeError("alexlab exited with code %d" % code)
    return cli_doc(out.getvalue())


def cli_doc(stdout: str) -> dict:
    return ref.strip_files(json.loads(stdout))


def check_cli(spec, doc) -> str | None:
    res = doc["result"]
    kind = spec["kind"]
    if kind == "qp":
        p, q = spec["knot"]
        if res["per_k"][0]["delta"] != ref.univariate_doc(ref.torus_knot_delta(p, q)):
            return "test qp Delta^1 of T(%d,%d) differs from the closed form" % (p, q)
    elif kind == "cv":
        p, q = spec["knot"]
        num, den = (int(x) for x in spec["rho"].split("/"))
        dim = ref.knot_cv_dim(p, q, num, den)
        if res["dim"] != dim or res["memberships"] != [True] * dim:
            return "cv of T(%d,%d) at %s differs from the closed form" % (p, q, spec["rho"])
    elif kind == "ball":
        # Delta = Delta_1(t1) Delta_2(t2) with both of degree 2, so the
        # difference hull of its support is the square [-2, 2]^2.
        want = [[str(x), str(y)] for x in (-2, 2) for y in (-2, 2)]
        if sorted(res["vertices"]) != sorted(want):
            return "ball of twist knots %s is not the square [-2,2]^2" % spec["twist"]
    elif kind == "delta":
        e = spec["power"]
        want = {"nvars": 1, "terms": [{"e": [k], "c": 1} for k in range(e)]}
        if res["delta"] != want:
            return "delta of a^%d b^-%d is not 1 + t + ... + t^%d" % (e, e, e - 1)
    return None
