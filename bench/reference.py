"""The correctness gate: closed forms computed with the benchmark's own
integer arithmetic, and digests of canonical answer documents.

A canonical document is the `--machine` JSON of an answer (or, for the
in-process workloads, a document of the same shape built from the public
report objects) with file names removed, dumped with sorted keys.  Its
digest is compared with the digest recorded for the same input at the
commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd

# -- univariate integer polynomials, as ascending coefficient lists ----------


def _trim(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def pdiv_exact(a, b):
    """a / b for integer polynomials, raising ValueError if inexact."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 1)
    for k in range(len(a) - len(b), -1, -1):
        c, r = divmod(a[k + len(b) - 1], b[-1])
        if r:
            raise ValueError("inexact division")
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] -= c * y
    if any(a):
        raise ValueError("inexact division")
    return _trim(q)


def xn_minus_1(n: int):
    return [-1] + [0] * (n - 1) + [1]


def torus_knot_delta(p: int, q: int):
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), ascending coefficients."""
    num = pmul(xn_minus_1(p * q), xn_minus_1(1))
    return pdiv_exact(num, pmul(xn_minus_1(p), xn_minus_1(q)))


def twist_knot_delta(p: int):
    """Alexander polynomial c t^2 - (p - 2c) t + c of the two-bridge
    knot b(p, 2), p odd, with c = (p + 1) // 4."""
    c = (p + 1) // 4
    return [c, -(p - 2 * c), c]


def univariate_doc(coeffs) -> dict:
    """LaurentPoly.to_doc shape of a canonical univariate polynomial."""
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return {"nvars": 1, "terms": [{"e": [k], "c": c} for k, c in enumerate(coeffs) if c]}


def knot_cv_dim(p: int, q: int, num: int, den: int) -> int:
    """dim H_1 of the (p, q) torus knot group twisted by the character
    t -> exp(2 pi i num/den): 1 exactly when the character's order m is
    a root order of Delta, i.e. m | pq but m divides neither p nor q."""
    m = den // gcd(num, den)
    if m == 1:
        return 1  # trivial character: dim = b1
    return int((p * q) % m == 0 and p % m != 0 and q % m != 0)


def product_coefficients(deltas):
    """Sorted coefficients of a product of polynomials in disjoint sets of
    variables, up to a global sign: invariant under any change of basis of
    the variables, so alexlab's choice of basis does not matter."""
    coeffs = [1]
    for d in deltas:
        coeffs = [a * b for a in coeffs for b in d if b]
    lo = sorted(coeffs)
    hi = sorted(-c for c in coeffs)
    return min(lo, hi)


def doc_coefficients(doc) -> list:
    coeffs = [t["c"] for t in doc["terms"]]
    return min(sorted(coeffs), sorted(-c for c in coeffs))


# -- digests ----------------------------------------------------------------


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    return hashlib.sha256(canonical(doc).encode()).hexdigest()[:32]


def strip_files(doc):
    """Drop the `file`/`files` fields that name a temporary path."""
    if isinstance(doc, dict):
        return {k: strip_files(v) for k, v in doc.items() if k not in ("file", "files")}
    return doc


def report_doc(r) -> dict:
    """The CLI's document of an obstruction report, from its public fields."""
    return {
        "test": r.test,
        "b1": r.b1,
        "k0": r.k0,
        "kmax": r.kmax,
        "thickness": r.thickness,
        "verdict": r.verdict,
        "witnesses": list(r.witnesses),
        "per_k": [
            {
                "k": f.k,
                "delta": f.delta.to_doc(),
                "newton_dim": f.newton_dim,
                "cyclotomic": f.cyclotomic,
                "remainder": None if f.remainder is None else f.remainder.to_doc(),
            }
            for f in r.per_k
        ],
    }


def sum_doc(rep) -> dict:
    return {
        "factors": [
            {"b1": f.b1, "k0": f.k0, "delta": f.delta.to_doc(), "thickness": f.thickness}
            for f in rep.factors
        ],
        "product": {
            "b1": rep.product_b1,
            "k0": rep.product_k0,
            "delta": rep.product_delta.to_doc(),
            "thickness": rep.product_thickness,
        },
        "thickness_additive": rep.thickness_additive,
        "delta_divisible": rep.delta_divisible,
        "qp": report_doc(rep.qp),
    }
