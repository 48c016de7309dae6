"""Multivariate integer Laurent polynomials, exactly.

A polynomial is a finite map from exponent vectors in Z^n to nonzero
integer coefficients.  Values are immutable; the ring operators (+, -, *)
return exact representatives, while :meth:`LaurentPoly.canonical` picks the
distinguished associate (componentwise-minimal exponent 0 in every variable,
positive coefficient on the lexicographically largest exponent) so that
"equal up to a unit" becomes plain equality.

Exact division packs each exponent vector into one int (a mixed radix
per call, first variable most significant, so int order is lex order) and
takes the leading remainder term from a heap of packed keys; only the
quotient is unpacked.  The gcd is computed dependency-free, on one path: a
heuristic gcd (evaluation at large integers, integer gcd, lifting by
base-xi digits) certified by exact division, which tries larger evaluation
points until a candidate passes and raises LimitError once they pass a
cap.  The number of variables is capped (default 6, override with the
ALEXLAB_MAX_VARS environment variable).

Univariate cyclotomic work (Phi_d, cyclotomic decomposition, the rings
Z[zeta_m] of values at torsion characters) runs on dense coefficient
lists, constant term first, with one product and one division by a monic
divisor, so integers stay integers; Phi_d itself is a Moebius product of
binomials 1 - t^k, one linear pass each.  Nothing here divides in a
cyclotomic field.  The cyclotomic decomposition sieves its trial divisors
on packed integers first (t -> 2^16 is a ring map Z[t] -> Z) and divides
exactly only by the Phi_d that pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd as igcd, isqrt

from .errors import DomainError, LimitError, limit_from_env
from . import exactla

DEFAULT_MAX_VARS = 6


def max_gcd_vars() -> int:
    return limit_from_env("ALEXLAB_MAX_VARS", DEFAULT_MAX_VARS)


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial in `nvars` variables.

    `terms` is a tuple of (exponent vector, coefficient) pairs, sorted
    lexicographically by exponent vector, with no zero coefficients.
    """

    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    # -- construction -------------------------------------------------

    @staticmethod
    def _make(nvars: int, mapping) -> "LaurentPoly":
        items = tuple(sorted((tuple(e), c) for e, c in mapping.items() if c))
        return LaurentPoly(nvars, items)

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, ())

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentPoly":
        c = int(c)
        if c == 0:
            return cls.zero(nvars)
        return cls(nvars, (((0,) * nvars, c),))

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def monomial(cls, nvars: int, exps, c: int = 1) -> "LaurentPoly":
        exps = tuple(int(x) for x in exps)
        if len(exps) != nvars:
            raise DomainError("exponent vector length does not match nvars")
        if c == 0:
            return cls.zero(nvars)
        return cls(nvars, ((exps, int(c)),))

    @classmethod
    def variable(cls, nvars: int, i: int) -> "LaurentPoly":
        return cls.monomial(nvars, tuple(1 if j == i else 0 for j in range(nvars)))

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e, _ in self.terms)

    def constant_value(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise DomainError("not a constant polynomial")
        return self.terms[0][1]

    def is_unit(self) -> bool:
        """Units of Z[H]: plus or minus a single monomial."""
        return len(self.terms) == 1 and abs(self.terms[0][1]) == 1

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(e for e, _ in self.terms)

    def min_exponents(self) -> tuple[int, ...]:
        if self.is_zero():
            return (0,) * self.nvars
        if self.nvars <= 1:  # the terms are sorted, so the first is least
            return self.terms[0][0]
        return tuple(min(e[i] for e, _ in self.terms) for i in range(self.nvars))

    def total_degree_spread(self) -> int:
        """max minus min of the total degree over the support (0 for 0)."""
        if self.is_zero():
            return 0
        sums = [sum(e) for e, _ in self.terms]
        return max(sums) - min(sums)

    # -- arithmetic ----------------------------------------------------

    def _check_ambient(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise DomainError(
                "ambient mismatch: %d vs %d variables" % (self.nvars, other.nvars)
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_ambient(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return self._make(self.nvars, acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_ambient(other)
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return self._make(self.nvars, acc)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise DomainError("negative power of a polynomial")
        out = LaurentPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly(self.nvars, tuple((e, c * x) for e, x in self.terms))

    def shift(self, by) -> "LaurentPoly":
        """Multiply by the monomial with exponent vector `by`."""
        by = tuple(by)
        return LaurentPoly(
            self.nvars,
            tuple((tuple(a + b for a, b in zip(e, by)), c) for e, c in self.terms),
        )

    # -- normalization ---------------------------------------------------

    def canonical(self) -> "LaurentPoly":
        """The distinguished associate: min exponent 0 in each variable and a
        positive coefficient on the lex-largest exponent vector.  A canonical
        polynomial is returned as it is."""
        if self.is_zero():
            return self
        low = self.min_exponents()
        p = self.shift(tuple(-m for m in low)) if any(low) else self
        return p if p.terms[-1][1] > 0 else -p

    def unit_equal(self, other: "LaurentPoly") -> bool:
        return self.canonical() == other.canonical()

    # -- text form --------------------------------------------------------

    def _term_str(self, e, c, names) -> str:
        parts = []
        for name, k in zip(names, e):
            if k == 1:
                parts.append(name)
            elif k != 0:
                parts.append("%s^%d" % (name, k))
        mono = "*".join(parts)
        if not mono:
            return str(abs(c))
        if abs(c) == 1:
            return mono
        return "%d*%s" % (abs(c), mono)

    def text(self) -> str:
        """Canonical text form.  Univariate polynomials print in descending
        powers of `t`, in one pass over the terms from the top; multivariate
        ones ascending lex in t1..tn."""
        if self.is_zero():
            return "0"
        if self.nvars == 0:
            return str(self.terms[0][1])
        if self.nvars == 1:
            out = []
            for (k,), c in reversed(self.terms):
                a = -c if c < 0 else c
                if k == 0:
                    body = "%d" % a
                else:
                    mono = "t" if k == 1 else "t^%d" % k
                    body = mono if a == 1 else "%d*%s" % (a, mono)
                out.append(("- " if c < 0 else "+ ") + body)
            s = " ".join(out)
            # The first term takes a bare sign: "-" or none.
            return s[2:] if s[0] == "+" else "-" + s[2:]
        names = tuple("t%d" % (i + 1) for i in range(self.nvars))
        out = []
        for i, (e, c) in enumerate(self.terms):
            body = self._term_str(e, c, names)
            if i == 0:
                out.append("-" + body if c < 0 else body)
            else:
                out.append(("- " if c < 0 else "+ ") + body)
        return " ".join(out)

    def __str__(self) -> str:
        return self.text()

    def to_doc(self) -> dict:
        """Machine-readable form: terms ascending lex by exponent vector."""
        return {
            "nvars": self.nvars,
            "terms": [{"e": list(e), "c": c} for e, c in self.terms],
        }


# -- exact division ---------------------------------------------------------


def _pack(terms, low, radices) -> list[tuple[int, int]]:
    """(packed exponent, coefficient) pairs of `terms` shifted by -low:
    mixed radix, first variable most significant, so that int order is lex
    order while every digit stays below its radix."""
    out = []
    for e, c in terms:
        k = 0
        for x, m, r in zip(e, low, radices):
            k = k * r + x - m
        out.append((k, c))
    return out


def exact_div(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly | None:
    """p / d when d divides p exactly in the Laurent ring, else None.

    Both operands are shifted to min exponent 0, where the quotient q of an
    exact division has 0 <= deg_i q <= deg_i p - deg_i d.  Exponent vectors
    are packed into one int each (radix deg_i p + 1), so that adding the
    exponents of a quotient term within those bounds and a term of d never
    carries.  The remainder is a dict on packed keys, and a max-heap of its
    keys gives each leading term (Johnson division; Monagan & Pearce,
    "Polynomial division using dynamic arrays, heaps, and packed exponent
    vectors", CASC 2007).  A term that cancels stays in the dict as 0 until
    its key reaches the top, so no key is pushed twice: a deleted key that
    came back would be.  Only the quotient is unpacked.
    """
    p._check_ambient(d)
    if d.is_zero():
        raise DomainError("division by zero polynomial")
    if p.is_zero():
        return p
    pcols = tuple(zip(*(e for e, _ in p.terms)))
    dcols = tuple(zip(*(e for e, _ in d.terms)))
    sp = tuple(map(min, pcols))
    sd = tuple(map(min, dcols))
    degp = [max(col) - m for col, m in zip(pcols, sp)]
    bounds = [dp - max(col) + m for dp, col, m in zip(degp, dcols, sd)]
    if any(b < 0 for b in bounds):
        return None
    radices = [dp + 1 for dp in degp]
    P = dict(_pack(p.terms, sp, radices))
    D = _pack(d.terms, sd, radices)
    dl_k, dl_c = D.pop()  # d's terms are sorted, so its leading term is last
    low_first = list(zip(reversed(radices), reversed(bounds)))
    heap = [-k for k in P]
    heapify(heap)
    push, get = heappush, P.get
    quo = []
    while heap:
        k = -heappop(heap)
        lc = P.pop(k)
        if not lc:
            continue  # the term cancelled after it was pushed
        if lc % dl_c:
            return None
        # The digits of k - dl_k are the exponent differences unless some
        # difference is negative; then the lowest such digit borrows and
        # lands above its bound (a negative k - dl_k included), so one
        # check catches both failures.
        qk = rest = k - dl_k
        digits = []
        for r, b in low_first:
            rest, x = divmod(rest, r)
            if x > b:
                return None
            digits.append(x)
        qc = lc // dl_c
        quo.append((digits, qc))
        nq = -qc
        for dk, dc in D:
            key = qk + dk
            c = get(key)
            if c is None:
                P[key] = nq * dc
                push(heap, -key)
            else:
                P[key] = c + nq * dc
    # quo runs from the lex-largest term down, its digits from the last
    # variable up.
    shift = [a - b for a, b in zip(sp, sd)]
    return LaurentPoly(
        p.nvars,
        tuple(
            (tuple(x + s for x, s in zip(reversed(digits), shift)), c)
            for digits, c in reversed(quo)
        ),
    )


def divides(d: LaurentPoly, p: LaurentPoly) -> bool:
    if d.is_zero():
        return p.is_zero()
    return exact_div(p, d) is not None


def multiply(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact ring product.  The product of canonical inputs is canonical
    (minimal exponents and lex-max signs both multiply)."""
    return p * q


# -- gcd -------------------------------------------------------------------


def _heu_gcd(f: dict, g: dict, n: int) -> dict:
    """Heuristic gcd (GCDHEU: Char, Geddes & Gonnet, J. Symbolic Comput. 7,
    1989) of two nonzero polynomials given as {exponent n-tuple: int} with
    nonnegative exponents.

    Drops the last variable when neither operand has it.  Otherwise
    evaluates it at an integer xi, takes the gcd of the images (recursively,
    down to integers), lifts it back by symmetric base-xi digits and keeps
    its primitive part only if exact division shows that it divides both
    primitive operands.  With xi >= 2*min(|f|, |g|) + 2 (max norms of the
    primitive parts) such a candidate is the gcd (Geddes, Czapor & Labahn,
    Thm 7.7), provided the gcd of the images is exact, as it is here at
    every level.

    The loop over xi terminates.  Write the primitive operands as D*A and
    D*B with D their gcd.  Since A and B are coprime, only finitely many xi
    give the images A(xi) and B(xi) a common factor of positive degree.  At
    every other xi they share only an integer h, and h divides every
    coefficient of the resultant of A and B in the last variable, which
    does not depend on xi; so once xi > 2*|h|*|D|, the gcd of the images
    is +-h*D(xi), the lift is +-h*D and its primitive part is D.  The work
    is bounded all the same: each level raises LimitError once xi has more
    than 8*b0 + 64 bits, b0 the bit length of its first xi.  The first six
    xi always stay below that cap.
    """
    if n == 0:
        return {(): igcd(f[()], g[()])}
    if not any(e[-1] for e in f) and not any(e[-1] for e in g):
        f = {e[:-1]: c for e, c in f.items()}
        h = _heu_gcd(f, {e[:-1]: c for e, c in g.items()}, n - 1)
        return {e + (0,): c for e, c in h.items()}
    cf = exactla.content(f.values())
    cg = exactla.content(g.values())
    if cf != 1:
        f = {e: c // cf for e, c in f.items()}
    if cg != 1:
        g = {e: c // cg for e, c in g.items()}
    F = LaurentPoly(n, tuple(sorted(f.items())))
    G = LaurentPoly(n, tuple(sorted(g.items())))
    cont = igcd(cf, cg)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    cap = 8 * xi.bit_length() + 64
    while xi.bit_length() <= cap:
        # xi may be a root of the operand with the larger norm.
        ff = _eval_last(f, xi)
        gg = _eval_last(g, xi)
        if ff and gg:
            H = _lift_last(_heu_gcd(ff, gg, n - 1), xi)
            hc = exactla.content(H.values())
            C = LaurentPoly(n, tuple(sorted((e, c // hc) for e, c in H.items())))
            # With min exponents 0, division in the Laurent ring is division
            # in the polynomial ring, where the theorem holds.
            if (
                not any(C.min_exponents())
                and exact_div(F, C) is not None
                and exact_div(G, C) is not None
            ):
                return {e: cont * c for e, c in C.terms}
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    raise LimitError(
        "gcd: no evaluation point below 2^%d certified a candidate "
        "(operands with %d and %d terms)" % (cap, len(f), len(g))
    )


def _eval_last(f: dict, xi: int) -> dict:
    """f with its last variable set to xi, zero coefficients dropped.

    Horner's rule on each slice of fixed other exponents, from its top
    degree down, so only one value of up to deg * log2(xi) bits is live at
    a time: memory stays linear in the size of the result."""
    slices: dict = {}
    for e, c in f.items():
        slices.setdefault(e[:-1], []).append((e[-1], c))
    out = {}
    for key, terms in slices.items():
        terms.sort(reverse=True)
        acc, d = 0, terms[0][0]
        for k, c in terms:
            acc = acc * xi ** (d - k) + c
            d = k
        if acc:
            out[key] = acc * xi**d
    return out


def _lift_last(h: dict, xi: int) -> dict:
    """Inverse of `_eval_last` for coefficients below xi/2: each integer
    becomes its symmetric base-xi digits, the k-th digit the coefficient of
    the new last variable to the power k."""
    half = xi // 2
    out = {}
    for e, c in h.items():
        k = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[e + (k,)] = d
            c = (c - d) // xi
            k += 1
    return out


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """gcd in the Laurent ring, canonically normalized.  gcd(p, 0) = p.

    Returns p (canonical) when it divides q: at once when the canonical
    operands are equal, else when `exact_div` shows it.  Otherwise returns
    the certified heuristic `_heu_gcd`, which raises LimitError when its
    evaluation points pass their cap.  Each answer is exact."""
    p._check_ambient(q)
    if p.is_zero():
        return q.canonical()
    if q.is_zero():
        return p.canonical()
    limit = max_gcd_vars()
    if p.nvars > limit:
        raise LimitError(
            "gcd supports at most %d variables (have %d); "
            "set ALEXLAB_MAX_VARS to raise the limit" % (limit, p.nvars)
        )
    P = p.canonical()
    Q = q.canonical()
    if P == Q or exact_div(Q, P) is not None:
        return P
    h = _heu_gcd(dict(P.terms), dict(Q.terms), p.nvars)
    return LaurentPoly._make(p.nvars, h).canonical()


# -- Newton polytope -------------------------------------------------------


def newton_dim(p: LaurentPoly) -> int:
    """Dimension of the affine hull of the support."""
    if p.is_zero():
        raise DomainError("Newton polytope of the zero polynomial")
    pts = p.support()
    base = pts[0]
    diffs = [tuple(a - b for a, b in zip(s, base)) for s in pts[1:]]
    if not diffs:
        return 0
    return exactla.integer_rank(exactla.IntMatrix.from_rows(diffs))


@dataclass(frozen=True)
class UnivariateForm:
    """A polynomial with at most 1-dimensional support, rewritten as p(h)
    for a primitive direction h."""

    direction: tuple[int, ...]
    poly: LaurentPoly  # univariate, in t

    def reassemble(self, nvars: int) -> LaurentPoly:
        out = LaurentPoly.zero(nvars)
        for e, c in self.poly.terms:
            k = e[0]
            out = out + LaurentPoly.monomial(
                nvars, tuple(k * h for h in self.direction), c
            )
        return out


def line_support(p: LaurentPoly) -> UnivariateForm | None:
    """When the support is a point or a segment, the primitive direction h
    and the univariate polynomial along it; None when the support is wider.

    One pass over the support decides both: h is the primitive vector of
    the first difference from the first support point, and every support
    point must be that point plus an integer multiple of h, else the
    Newton polytope has dimension at least 2.  A point gives the direction
    (1, 0, .., 0) and a constant."""
    if p.is_zero():
        raise DomainError("line_support of the zero polynomial")
    pts = p.support()
    if len(pts) == 1:
        direction = tuple(1 if i == 0 else 0 for i in range(p.nvars))
        return UnivariateForm(direction, LaurentPoly.constant(1, p.terms[0][1]))
    base = pts[0]
    diffs = [tuple(a - b for a, b in zip(s, base)) for s in pts]
    d0 = next(d for d in diffs if any(d))
    g = exactla.content(d0)
    h = tuple(x // g for x in d0)
    for i, x in enumerate(h):
        if x:
            if x < 0:
                h = tuple(-y for y in h)
            break
    # Every support point is base + k*h for an integer k, or the support
    # is wider than a segment.
    href = next(i for i, x in enumerate(h) if x)
    ks = []
    for d in diffs:
        k, r = divmod(d[href], h[href])
        if r or any(d[i] != k * h[i] for i in range(p.nvars)):
            return None
        ks.append(k)
    kmin = min(ks)
    acc = {}
    for (e, c), k in zip(p.terms, ks):
        acc[(k - kmin,)] = c
    return UnivariateForm(h, LaurentPoly._make(1, acc))


# -- cyclotomic machinery ----------------------------------------------------


def _prime_factors(d: int) -> list[int]:
    """The distinct primes dividing d, increasing, by trial division."""
    primes, p = [], 2
    while p * p <= d:
        if d % p == 0:
            primes.append(p)
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        primes.append(d)
    return primes


def euler_phi(d: int) -> int:
    out = d
    for p in _prime_factors(d):
        out -= out // p
    return out


def _small_phi(limit):
    """Every (d, phi(d), primes of d) with phi(d) <= n = limit(), depth
    first over prime powers, since phi(prod p^k) = prod p^(k-1) (p - 1) and
    only primes p <= n + 1 can divide such a d.  limit() is read again
    after each yield, for a caller whose bound falls: every d below a node
    has a multiple of its phi, so the node's whole subtree is cut."""
    n = limit()
    sieve = bytearray([1]) * (n + 2)
    primes = []
    for p in range(2, n + 2):
        if sieve[p]:
            primes.append(p)
            sieve[p * p :: p] = bytes(len(range(p * p, n + 2, p)))
    stack = [(1, 1, 0, ())]
    while stack:
        d, phi, start, ps = stack.pop()
        if phi > n:
            continue
        yield d, phi, ps
        n = min(n, limit())
        for i in range(start, len(primes)):
            p = primes[i]
            q, f = d * p, phi * (p - 1)
            if f > n:
                break
            qs = ps + (p,)
            while f <= n:
                stack.append((q, f, i + 1, qs))
                q, f = q * p, f * p


def _mul(a, b) -> list:
    """Product of two dense coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _divmod(a, b) -> tuple[list, list]:
    """Quotient and remainder of a by a monic b, the remainder padded to
    deg b coefficients."""
    n = len(b) - 1
    r = list(a) + [0] * (n - len(a))
    low = [(j, y) for j, y in enumerate(b[:n]) if y]
    q = [0] * max(len(r) - n, 0)
    for k in reversed(range(len(q))):
        f = r[k + n]
        if f:
            q[k] = f
            for j, y in low:
                r[k + j] -= f * y
    return q, r[:n]


def _from_dense(a) -> LaurentPoly:
    return LaurentPoly(1, tuple(((k,), c) for k, c in enumerate(a) if c))


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d, constant term first.  Phi_d(t) = Phi_r(t^(d/r))
    for the squarefree kernel r of d; for r > 1, Phi_r is the Moebius product
    of the binomials 1 - t^(r/e) over the divisors e of r, taken as power
    series mod t^(phi(r) + 1), one linear pass per binomial."""
    primes = _prime_factors(d)
    if not primes:
        return (-1, 1)
    divisors = [(1, 1)]  # (e, mu(e)) over the squarefree divisors of d
    phi = 1
    for p in primes:
        divisors += [(e * p, -mu) for e, mu in divisors]
        phi *= p - 1
    r = divisors[-1][0]
    c = [1] + [0] * phi
    for e, mu in divisors:
        a = r // e
        if mu > 0:  # times 1 - t^a
            c[a:] = [x - y for x, y in zip(c[a:], c)]
        else:  # divided by 1 - t^a: c[i] += c[i - a], a block of a at a time
            for s in range(a, phi + 1, a):
                c[s : s + a] = [x + y for x, y in zip(c[s : s + a], c[s - a : s])]
    if d > r:
        spread = [0] * (phi * (d // r) + 1)
        spread[:: d // r] = c
        c = spread
    return tuple(c)


def cyclotomic_polynomial(d: int) -> LaurentPoly:
    """The d-th cyclotomic polynomial as a univariate LaurentPoly."""
    if d < 1:
        raise DomainError("cyclotomic index must be positive")
    return _from_dense(_cyclotomic_coeffs(d))


@dataclass(frozen=True)
class CyclotomicDecomposition:
    """content * prod Phi_d^mult * remainder = input, up to a unit."""

    content: int
    factors: tuple[tuple[int, int], ...]
    remainder: LaurentPoly

    @property
    def is_cyclotomic_product(self) -> bool:
        return self.remainder == LaurentPoly.one(1)

    def reassemble(self) -> LaurentPoly:
        out = LaurentPoly.constant(1, self.content)
        for d, m in self.factors:
            out = out * cyclotomic_polynomial(d) ** m
        return out * self.remainder


# Bits per coefficient slot of the packed value P(2^_PACK_BITS) that the
# cyclotomic sieve tests.  Any width is sound; a wider one lets fewer
# non-factors through to the exact division.
_PACK_BITS = 16


def _packed_phi(d: int, phi: int, primes) -> int:
    """Phi_d(X) at X = 2^_PACK_BITS, for d with Euler phi(d) = phi and the
    given distinct primes.

    0 < Phi_d(X) <= (X + 1)^phi < 2^B, so it is computed mod 2^B, through
    the ring map t -> X of Phi_d(t) * prod (1 - t^(d/e)) over mu(e) = -1 =
    prod (1 - t^(d/e)) over mu(e) = +1 (e squarefree, e | d > 1).  Each
    1 - X^k is odd, its inverse mod 2^B the sum of the X^(jk), built by
    doubling: (1 + Y)(1 + Y^2)(1 + Y^4)...; a factor with X^k = 0 mod 2^B
    is 1 and skipped."""
    if d == 1:
        return (1 << _PACK_BITS) - 1
    B = _PACK_BITS * phi + (phi >> (_PACK_BITS - 1)) + 1
    mask = (1 << B) - 1
    divisors = [(1, 1)]  # (e, mu(e)) over the squarefree divisors of d
    for p in primes:
        divisors += [(e * p, -mu) for e, mu in divisors]
    out = 1
    for e, mu in divisors:
        s = _PACK_BITS * (d // e)
        if s >= B:
            continue
        if mu > 0:
            out = (out - (out << s)) & mask
        else:
            while s < B:
                out = (out + (out << s)) & mask
                s *= 2
    return out


def cyclotomic_decompose(p: LaurentPoly) -> CyclotomicDecomposition:
    """Split a nonzero univariate polynomial into integer content, cyclotomic
    factors found by exhaustive trial division, and a cyclotomic-free
    remainder.  Trial indices are exactly the d with phi(d) <= the degree
    left, taken depth first (the factors are reported with d increasing).

    The primitive part P is packed once as the integer P(X), X =
    2^_PACK_BITS.  Since t -> X is a ring map Z[t] -> Z, Phi_d | P forces
    Phi_d(X) | P(X), so a d with P(X) mod Phi_d(X) != 0 is rejected with
    certainty; only the d that pass get their coefficients built and an
    exact division, which confirms the factor and gives the quotient.
    """
    if p.nvars != 1:
        raise DomainError("cyclotomic_decompose expects a univariate polynomial")
    if p.is_zero():
        raise DomainError("cyclotomic_decompose of the zero polynomial")
    terms = p.canonical().terms
    c = exactla.content(x for _, x in terms)
    P = [0] * (terms[-1][0][0] + 1)
    for (k,), x in terms:
        P[k] = x // c
    packed = 0
    for x in reversed(P):
        packed = (packed << _PACK_BITS) + x
    factors = []
    for d, phi, primes in _small_phi(lambda: len(P) - 1):
        phx = _packed_phi(d, phi, primes)
        mult = 0
        while packed % phx == 0:
            q, r = _divmod(P, _cyclotomic_coeffs(d))
            if any(r):
                break
            P, packed, mult = q, packed // phx, mult + 1
        if mult:
            factors.append((d, mult))
    return CyclotomicDecomposition(c, tuple(sorted(factors)), _from_dense(P))


# -- evaluation at torsion characters ----------------------------------------


@dataclass(frozen=True)
class CycloElement:
    """An element of the ring Z[zeta_m], reduced modulo Phi_m: its integer
    coefficients on 1, zeta, .., zeta^(phi(m)-1)."""

    order: int
    coeffs: tuple

    @classmethod
    def from_poly(cls, order: int, coeffs) -> "CycloElement":
        return cls(order, tuple(_divmod(coeffs, _cyclotomic_coeffs(order))[1]))

    @classmethod
    def from_int(cls, order: int, c) -> "CycloElement":
        return cls.from_poly(order, [c])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _lift(self, other):
        if isinstance(other, CycloElement):
            if other.order != self.order:
                raise DomainError("cyclotomic orders differ")
            return other
        return CycloElement.from_int(self.order, other)

    def __add__(self, other):
        o = self._lift(other)
        return CycloElement(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return CycloElement(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._lift(other)
        return CycloElement.from_poly(self.order, _mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycloElement.from_int(self.order, other)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs


def character_order(rho) -> int:
    m = 1
    for x in rho:
        m = m * Fraction(x).denominator // igcd(m, Fraction(x).denominator)
    return m


def _character_numerators(rho, m: int) -> tuple[int, ...]:
    """The a_i in [0, m) with rho_i = a_i / m mod 1 (rho of Fractions, m a
    multiple of the character's order): x_i goes to zeta_m^(a_i)."""
    return tuple(int(x * m) % m for x in rho)


def _cyclotomic_residue(p: LaurentPoly, nums, m: int) -> list[int]:
    """The coefficients of p(zeta_m^(a_1), .., zeta_m^(a_n)) on 1, zeta_m,
    .., zeta_m^(phi(m)-1): p's exponents folded mod m by the numerators
    `nums`, then the remainder mod Phi_m."""
    coeffs = [0] * m
    for e, c in p.terms:
        coeffs[sum(ei * ai for ei, ai in zip(e, nums)) % m] += c
    return _divmod(coeffs, _cyclotomic_coeffs(m))[1]


def evaluate_at_character(p: LaurentPoly, rho) -> CycloElement:
    """Exact value of p at the torsion character exp(2*pi*i*rho), as an
    element of Z[zeta_m], m the character's order."""
    rho = [Fraction(x) for x in rho]
    if len(rho) != p.nvars:
        raise DomainError("character length does not match variable count")
    m = character_order(rho)
    return CycloElement(m, tuple(_cyclotomic_residue(p, _character_numerators(rho, m), m)))


# -- misc helpers used by higher layers --------------------------------------


def apply_exponent_map(p: LaurentPoly, rows, target_nvars: int) -> LaurentPoly:
    """Push p through the monomial map sending exponent e to M e, where M
    has the given rows (target_nvars x p.nvars)."""
    rows = [tuple(r) for r in rows]
    if len(rows) != target_nvars or any(len(r) != p.nvars for r in rows):
        raise DomainError("exponent map shape mismatch")
    acc: dict = {}
    for e, c in p.terms:
        ne = tuple(sum(m * x for m, x in zip(row, e)) for row in rows)
        acc[ne] = acc.get(ne, 0) + c
    return LaurentPoly._make(target_nvars, acc)


def poly_from_pairs(nvars: int, pairs) -> LaurentPoly:
    acc: dict = {}
    for e, c in pairs:
        e = tuple(e)
        acc[e] = acc.get(e, 0) + c
    return LaurentPoly._make(nvars, acc)
