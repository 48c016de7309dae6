"""Multivariate integer Laurent polynomials, exactly.

A polynomial is a finite map from exponent vectors in Z^n to nonzero
integer coefficients.  Values are immutable; the ring operators (+, -, *)
return exact representatives, while :meth:`LaurentPoly.canonical` picks the
distinguished associate (componentwise-minimal exponent 0 in every variable,
positive coefficient on the lexicographically largest exponent) so that
"equal up to a unit" becomes plain equality.

Each polynomial stores its terms once, as (key, coefficient) pairs sorted by
key, where the key of an exponent vector e is k(e) = sum e_i * 2^(32(n-1-i)),
signed digits, first variable most significant.  The map is Z-linear, so a
product's keys are sums of keys and a monomial factor adds one key; and
while every |e_i| < 2^31, k is injective and integer order on keys is lex
order on exponent vectors.  A univariate key is the exponent itself (no
bound), a constant's key is 0.  With two or more variables every
polynomial carries a bound on its |e_i| that adds under products.  When
that sum reaches 2^31, the operands' per-variable exponent ranges are added
instead, and only a result exponent of magnitude 2^31 or more raises
LimitError rather than wrapping.  Products, sums, `canonical`, exact
division and the gcd work on keys alone; exponent tuples are decoded only
at the edges (`terms`, text, documents, supports).

Exact division takes the leading remainder term from a heap of keys, on
both operands shifted to min exponent 0, where a digit is a mask and a
shift.  The gcd is computed dependency-free, on one path: a heuristic gcd
(evaluation at large integers, integer gcd, lifting by base-xi digits)
certified by exact division, which tries larger evaluation points until a
candidate passes and raises LimitError once they pass a cap.  The number of
variables is capped (default 6, override with the ALEXLAB_MAX_VARS
environment variable).

Univariate cyclotomic work (Phi_d, cyclotomic decomposition, values at
torsion characters) runs on dense coefficient lists, constant term first,
with one division by a monic divisor, so integers stay integers; Phi_d
itself is a Moebius product of binomials 1 - t^k, one linear pass each.
The value at a character of order m is a residue mod Phi_m, the tuple of
its integer coefficients on 1, zeta_m, .., zeta_m^(phi(m)-1).  Nothing
here divides in a cyclotomic field.  The cyclotomic decomposition sieves
its trial divisors on packed integers first (t -> 2^16 is a ring map
Z[t] -> Z) and divides exactly only by the Phi_d that pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain
from math import gcd as igcd, isqrt, prod
from operator import add, sub

from ._value import Value
from .errors import DomainError, LimitError, limit_from_env
from . import exactla

DEFAULT_MAX_VARS = 6

# Exponent keys: one signed digit of _BITS bits per variable.  With two or
# more variables every |exponent| stays below _HALF.
_BITS = 32
_MASK = (1 << _BITS) - 1
_HALF = 1 << (_BITS - 1)


def max_gcd_vars() -> int:
    return limit_from_env("ALEXLAB_MAX_VARS", DEFAULT_MAX_VARS)


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[int, tuple[int, ...]]:
    """(bias, shifts) of n-variable keys: the shift of each variable's
    digit, first variable first, and the bias sum _HALF << shift, which
    makes every digit of k + bias nonnegative, so that digit i of k is
    ((k + bias) >> shift_i) & _MASK minus _HALF."""
    shifts = tuple(range(_BITS * (n - 1), -1, -_BITS))
    return sum(_HALF << s for s in shifts), shifts


def _key(e) -> int:
    k = 0
    for x in e:
        k = (k << _BITS) + x
    return k


def _check_bound(bound: int) -> int:
    if bound >= _HALF:
        raise LimitError(
            "exponent of magnitude %d: with two or more variables exponents "
            "must stay below 2^%d" % (bound, _BITS - 1)
        )
    return bound


def _tuple_bound(nvars: int, vectors) -> int:
    """max |e_i| over the given exponent vectors (0 below two variables),
    checked against the key range."""
    if nvars < 2:
        return 0
    return _check_bound(max(map(abs, chain.from_iterable(vectors)), default=0))


def _ranges(items, n: int) -> tuple[list[int], list[int]]:
    """Per-variable minimum and maximum exponent of nonzero `items`.  The
    first variable's come from the first and last keys (a univariate key is
    its exponent, whatever its size), the others by digit extraction."""
    if n == 0:
        return [], []
    bias, (top, *rest) = _layout(n)
    lo = [((items[0][0] + bias) >> top) - _HALF]
    hi = [((items[-1][0] + bias) >> top) - _HALF]
    ks = [k + bias for k, _ in items] if rest else ()
    for s in rest:
        ds = [(k >> s) & _MASK for k in ks]
        lo.append(min(ds) - _HALF)
        hi.append(max(ds) - _HALF)
    return lo, hi


def _span(p: "LaurentPoly") -> tuple[list[int], list[int]]:
    """`_ranges` of a nonzero p, computed once and kept on it."""
    s = p._span
    if s is None:
        s = p._span = _ranges(p._items, p.nvars)
    return s


def _span_bound(span, n: int) -> int:
    """max |e_i| over a span (0 below two variables), checked."""
    if n < 2:
        return 0
    lo, hi = span
    return _check_bound(max(max(hi), -min(lo)))


class LaurentPoly:
    """Integer Laurent polynomial in `nvars` variables.

    The constructor takes (exponent vector, coefficient) pairs in any
    order: coefficients of a repeated vector are added up, zero sums are
    dropped, and a vector whose length is not `nvars`, or a coefficient or
    exponent that is not an int, raises DomainError.
    `terms` gives them back as a tuple sorted lexicographically by exponent
    vector, with no zero coefficients.  It is a view decoded from the
    stored keys on first use and kept; `==`, `hash` and arithmetic never
    decode.  Not a `Value`.  The terms never change once set, by the
    constructor or by `_poly`; the decoded view and the exponent ranges are
    caches filled on first use, and `canonical` marks a polynomial that it
    finds already canonical (and tightens its exponent bound).
    """

    __slots__ = ("nvars", "_items", "_bound", "_canon", "_span", "_terms")

    def __init__(self, nvars: int, terms=()):
        terms = tuple(terms)
        acc: dict = {}
        get = acc.get
        for e, c in terms:
            if len(e) != nvars:
                raise DomainError("exponent vector length does not match nvars")
            if not (isinstance(c, int) and all(isinstance(x, int) for x in e)):
                raise DomainError(
                    "exponents and coefficients must be integers, got %r, %r" % (e, c)
                )
            k = _key(e)
            acc[k] = get(k, 0) + c
        # Over every given vector, dropped ones too: past the bound two
        # vectors can share a key, and the merge above would be wrong.
        self._bound = _tuple_bound(nvars, (e for e, _ in terms))
        self.nvars = nvars
        self._items = tuple(sorted([kc for kc in acc.items() if kc[1]]))
        self._canon = False
        self._span = None
        self._terms = None

    # -- construction -------------------------------------------------

    @staticmethod
    def _from_runs(nvars: int, runs) -> "LaurentPoly":
        """Sum of sign * t^(start + j*step) over 0 <= j < count, for each
        run (start, step, count, sign) of exponent vectors start and step:
        the keys of one run are a range, since the key map is linear."""
        acc: dict = {}
        get = acc.get
        ends = []  # every run's first and last exponent vectors
        for start, step, count, sign in runs:
            kb = _key(start)
            ends.append(start)
            if count == 1:
                acc[kb] = get(kb, 0) + sign
                continue
            ks = _key(step)
            if ks:
                for k in range(kb, kb + count * ks, ks):
                    acc[k] = get(k, 0) + sign
            else:
                acc[kb] = get(kb, 0) + sign * count
            ends.append([b + (count - 1) * x for b, x in zip(start, step)])
        bound = _tuple_bound(nvars, ends)
        items = tuple(sorted([kc for kc in acc.items() if kc[1]]))
        return _poly(nvars, items, bound)

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return _poly(nvars, ())

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentPoly":
        """The constant c; a c that is not an int raises DomainError, as in
        the constructor."""
        if not isinstance(c, int):
            raise DomainError("coefficients must be integers, got %r" % (c,))
        if c == 0:
            return cls.zero(nvars)
        return _poly(nvars, ((0, int(c)),), 0, c > 0)

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def monomial(cls, nvars: int, exps, c: int = 1) -> "LaurentPoly":
        return cls(nvars, [(tuple(exps), c)])

    @classmethod
    def variable(cls, nvars: int, i: int) -> "LaurentPoly":
        return cls.monomial(nvars, tuple(1 if j == i else 0 for j in range(nvars)))

    # -- the decoded view, equality ---------------------------------------

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        t = self._terms
        if t is None:
            n = self.nvars
            if n == 1:
                t = tuple(((k,), c) for k, c in self._items)
            else:
                bias, shifts = _layout(n)
                t = tuple(
                    (tuple((((k + bias) >> s) & _MASK) - _HALF for s in shifts), c)
                    for k, c in self._items
                )
            self._terms = t
        return t

    def __eq__(self, other) -> bool:
        if other.__class__ is not LaurentPoly:
            return NotImplemented
        return self.nvars == other.nvars and self._items == other._items

    def __hash__(self) -> int:
        return hash((self.nvars, self._items))

    def __repr__(self) -> str:
        return "LaurentPoly(nvars=%r, terms=%r)" % (self.nvars, self.terms)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._items

    def is_unit(self) -> bool:
        """Units of Z[H]: plus or minus a single monomial."""
        items = self._items
        return len(items) == 1 and abs(items[0][1]) == 1

    def term_count(self) -> int:
        return len(self._items)

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(e for e, _ in self.terms)

    def total_degree_spread(self) -> int:
        """max minus min of the total degree over the support (0 for 0).

        The total degree of a key is its digit sum.  R = 2^32 is 1 mod
        R - 1, so k + n*bound is that sum plus n*bound mod R - 1; when
        2*n*bound < R - 1 the residue is the sum plus n*bound itself."""
        items, n = self._items, self.nvars
        if len(items) < 2 or n == 0:
            return 0
        if n == 1:
            return items[-1][0] - items[0][0]
        off = n * self._bound
        if 2 * off < _MASK:
            sums = [(k + off) % _MASK for k, _ in items]
        else:
            bias, shifts = _layout(n)
            sums = [sum(((k + bias) >> s) & _MASK for s in shifts) for k, _ in items]
        return max(sums) - min(sums)

    # -- arithmetic ----------------------------------------------------

    def _check_ambient(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise DomainError(
                "ambient mismatch: %d vs %d variables" % (self.nvars, other.nvars)
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, -1)

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other, merged in one dict on keys."""
        self._check_ambient(other)
        if not other._items:
            return self
        if not self._items:
            return other if sign > 0 else -other
        acc = dict(self._items)
        get = acc.get
        for k, c in other._items:
            acc[k] = get(k, 0) + sign * c
        items = tuple(sorted([kc for kc in acc.items() if kc[1]]))
        return _poly(self.nvars, items, max(self._bound, other._bound))

    def __neg__(self) -> "LaurentPoly":
        return _poly(self.nvars, tuple((k, -c) for k, c in self._items), self._bound, False, self._span)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        """Keys add, so a monomial factor shifts the other operand's keys in
        order; otherwise the products gather in one dict on keys.  The
        product of canonical operands is canonical (minimal exponents and
        lex-max signs both multiply), and is marked so."""
        self._check_ambient(other)
        a, b = self._items, other._items
        if not a or not b:
            return LaurentPoly.zero(self.nvars)
        bound = self._bound + other._bound
        if bound >= _HALF:
            (la, ha), (lb, hb) = _span(self), _span(other)
            bound = max(max(map(add, ha, hb)), -min(map(add, la, lb)))
        _check_bound(bound)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((k1, c1),) = a
            items = tuple((k1 + k, c1 * c) for k, c in b)
        else:
            acc: dict = {}
            get = acc.get
            for k1, c1 in a:
                for k2, c2 in b:
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
            items = tuple(sorted([kc for kc in acc.items() if kc[1]]))
        return _poly(self.nvars, items, bound, self._canon and other._canon)

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
        items = tuple((k, c * x) for k, x in self._items)
        return _poly(self.nvars, items, self._bound, self._canon and c > 0, self._span)

    # -- normalization ---------------------------------------------------

    def canonical(self) -> "LaurentPoly":
        """The distinguished associate: min exponent 0 in each variable and a
        positive coefficient on the lex-largest exponent vector.  A canonical
        polynomial is returned as it is, and marked, so asking again costs
        O(1)."""
        items = self._items
        if self._canon or not items:
            return self
        n = self.nvars
        lo, hi = _span(self)
        spread = list(map(sub, hi, lo))
        bound = _check_bound(max(spread)) if n > 1 else 0
        low = _key(lo)
        neg = items[-1][1] < 0
        if neg:
            items = tuple((k - low, -c) for k, c in items)
        elif low:
            items = tuple((k - low, c) for k, c in items)
        else:
            self._bound = bound
            self._canon = True
            return self
        return _poly(n, items, bound, True, ([0] * n, spread))

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
            return str(self._items[0][1])
        if self.nvars == 1:
            out = []
            for k, c in reversed(self._items):
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
        terms = [{"e": list(e), "c": c} for e, c in self.terms]
        return {"nvars": self.nvars, "terms": terms}


_new = object.__new__


def _poly(nvars: int, items, bound: int = 0, canon: bool = False, span=None) -> LaurentPoly:
    """A LaurentPoly on sorted nonzero (key, coefficient) `items`, whose
    |exponents| are at most `bound` (0 below two variables, where
    exponents have no bound);
    `canon` marks it canonical, and `span`, when given, is its `_ranges`."""
    p = _new(LaurentPoly)
    p.nvars = nvars
    p._items = items
    p._bound = bound
    p._canon = canon
    p._span = span
    p._terms = None
    return p


def _unit_inverse(u: LaurentPoly) -> LaurentPoly:
    """The inverse c * t^-a of a unit c * t^a (c = +-1): its key negated."""
    ((k, c),) = u._items
    return _poly(u.nvars, ((-k, c),), u._bound)


# -- exact division ---------------------------------------------------------


def exact_div(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly | None:
    """p / d when d divides p exactly in the Laurent ring, else None.

    Both operands are shifted to min exponent 0 (their keys less the key of
    their minima), where the quotient q of an exact division has
    0 <= deg_i q <= b_i = deg_i p - deg_i d.  There every digit of a key is
    below 2^31 (LimitError for a dividend of degree 2^31 or more in some
    variable, which has no canonical form either), so keys are plain
    base-2^32 numbers.  The remainder is a dict on keys, and a max-heap of
    its keys gives each leading term (Johnson division; Monagan & Pearce,
    "Polynomial division using dynamic arrays, heaps, and packed exponent
    vectors", CASC 2007).

    A quotient key x = k - k_lead(d) is accepted only when every digit x_i
    is at most b_i, in one test: (x | (x + G)) & O == 0, with O the top bit
    of every digit and G the digits 2^31 - 1 - b_i.  A digit x_i >= 2^31
    shows in x & O, so when none does, adding G carries out of no digit,
    and x_i + 2^31 - 1 - b_i reaches 2^31 exactly when x_i > b_i.  A
    negative difference of exponents borrows, so its digit lands at 2^32
    less at most deg_i d, at or above 2^31 (a negative x too, whose top
    digit reads so, since the remainder's keys stay nonnegative).
    Univariate keys have no digits: there the test is 0 <= x <= b_0.  A
    term that cancels stays in the dict as 0 until its key reaches the
    top, so no key is pushed twice: a deleted key that came back would be.
    """
    p._check_ambient(d)
    if d.is_zero():
        raise DomainError("division by zero polynomial")
    if p.is_zero():
        return p
    n = p.nvars
    lop, hip = _span(p)
    lod, hid = _span(d)
    qspan = list(map(sub, lop, lod)), list(map(sub, hip, hid))
    bounds = list(map(sub, qspan[1], qspan[0]))
    if any(b < 0 for b in bounds):
        return None
    qbound = _span_bound(qspan, n)
    if n == 1:
        top, mask = bounds[0], None
    else:
        if n:
            _check_bound(max(map(sub, hip, lop)))
        mask = _layout(n)[0]
        guard = _key([_HALF - 1 - b for b in bounds])
    kp, kd = _key(lop), _key(lod)
    P = {k - kp: c for k, c in p._items} if kp else dict(p._items)
    D = [(k - kd, c) for k, c in d._items] if kd else list(d._items)
    dl_k, dl_c = D.pop()  # d's terms are sorted, so its leading term is last
    heap = [-k for k in reversed(P)]  # ascending: already a heap
    push, get = heappush, P.get
    quo = []
    while heap:
        k = -heappop(heap)
        lc = P.pop(k)
        if not lc:
            continue  # the term cancelled after it was pushed
        if lc % dl_c:
            return None
        qk = k - dl_k
        if mask is None:
            if not 0 <= qk <= top:
                return None
        elif (qk | (qk + guard)) & mask:
            return None
        qc = lc // dl_c
        quo.append((qk, qc))
        nq = -qc
        for dk, dc in D:
            key = qk + dk
            c = get(key)
            if c is None:
                P[key] = nq * dc
                push(heap, -key)
            else:
                P[key] = c + nq * dc
    # quo runs from the lex-largest term down.
    shift = kp - kd
    items = tuple((k + shift, c) for k, c in reversed(quo))
    return _poly(n, items, qbound, p._canon and d._canon, qspan)


def divides(d: LaurentPoly, p: LaurentPoly) -> bool:
    if d.is_zero():
        return p.is_zero()
    return exact_div(p, d) is not None


# -- gcd -------------------------------------------------------------------


def _from_key_dict(n: int, f: dict) -> LaurentPoly:
    items = tuple(sorted(f.items()))
    span = _ranges(items, n)
    return _poly(n, items, _span_bound(span, n), False, span)


def _heu_gcd(F: LaurentPoly, G: LaurentPoly) -> LaurentPoly:
    """Heuristic gcd (GCDHEU: Char, Geddes & Gonnet, J. Symbolic Comput. 7,
    1989) of two nonzero polynomials with nonnegative exponents below 2^32,
    so that k & _MASK is a key's last exponent and k >> _BITS the key of
    the others.

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
    n = F.nvars
    f, g = F._items, G._items
    if n == 0:
        return LaurentPoly.constant(0, igcd(f[0][1], g[0][1]))
    if not any(k & _MASK for k, _ in f) and not any(k & _MASK for k, _ in g):
        # The gcd's exponents are bounded by the operands'.
        h = _heu_gcd(_drop_last(F), _drop_last(G))
        return _poly(n, tuple((k << _BITS, c) for k, c in h._items), max(F._bound, G._bound))
    fc, gc = [c for _, c in f], [c for _, c in g]
    cf, cg = igcd(*fc), igcd(*gc)
    if cf != 1:
        F = _poly(n, tuple((k, c // cf) for k, c in f), F._bound, False, F._span)
    if cg != 1:
        G = _poly(n, tuple((k, c // cg) for k, c in g), G._bound, False, G._span)
    cont = igcd(cf, cg)
    xi = 2 * min(max(map(abs, fc)) // cf, max(map(abs, gc)) // cg) + 2
    cap = 8 * xi.bit_length() + 64
    while xi.bit_length() <= cap:
        # xi may be a root of the operand with the larger norm.
        ff = _eval_last(F._items, xi)
        gg = _eval_last(G._items, xi)
        if ff and gg:
            h = _heu_gcd(_from_key_dict(n - 1, ff), _from_key_dict(n - 1, gg))
            H = _lift_last(h._items, xi)
            hc = igcd(*H.values())
            C = _from_key_dict(n, {k: c // hc for k, c in H.items()})
            # With min exponents 0, division in the Laurent ring is division
            # in the polynomial ring, where the theorem holds.
            if (
                not any(_span(C)[0])
                and exact_div(F, C) is not None
                and exact_div(G, C) is not None
            ):
                return C.scale(cont) if cont != 1 else C
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    raise LimitError(
        "gcd: no evaluation point below 2^%d certified a candidate "
        "(operands with %d and %d terms)" % (cap, len(f), len(g))
    )


def _drop_last(F: LaurentPoly) -> LaurentPoly:
    """F, whose last exponent is 0 everywhere, in the other variables."""
    n = F.nvars - 1
    return _poly(n, tuple((k >> _BITS, c) for k, c in F._items), F._bound if n > 1 else 0)


def _eval_last(f, xi: int) -> dict:
    """The (key, int) pairs `f` (keys as in `_heu_gcd`) with the last
    variable set to xi: a {key: int} dict, zero coefficients dropped.

    Horner's rule on each slice of fixed other exponents, from its top
    degree down, so only one value of up to deg * log2(xi) bits is live at
    a time: memory stays linear in the size of the result."""
    slices: dict = {}
    for k, c in f:
        slices.setdefault(k >> _BITS, []).append((k & _MASK, c))
    out = {}
    for key, terms in slices.items():
        terms.sort(reverse=True)
        acc, d = 0, terms[0][0]
        for j, c in terms:
            acc = acc * xi ** (d - j) + c
            d = j
        if acc:
            out[key] = acc * xi**d
    return out


def _lift_last(h, xi: int) -> dict:
    """Inverse of `_eval_last` for coefficients below xi/2: each integer of
    the (key, int) pairs `h` becomes its symmetric base-xi digits, the j-th
    digit the coefficient of the new last variable to the power j."""
    half = xi // 2
    out = {}
    for k, c in h:
        k <<= _BITS
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[k] = d
            c = (c - d) // xi
            k += 1
    return out


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """gcd in the Laurent ring, canonically normalized.  gcd(p, 0) = p.

    Returns p (canonical) when it divides q: at once when the canonical
    operands are equal, else when `exact_div` shows it.  Otherwise returns
    the certified heuristic `_heu_gcd`, which raises LimitError when its
    evaluation points pass their cap, or at once for a univariate operand
    of degree 2^31 or more.  Each answer is exact."""
    p._check_ambient(q)
    if p.is_zero():
        return q.canonical()
    if q.is_zero():
        return p.canonical()
    n = p.nvars
    limit = max_gcd_vars()
    if n > limit:
        raise LimitError(
            "gcd supports at most %d variables (have %d); "
            "set ALEXLAB_MAX_VARS to raise the limit" % (limit, n)
        )
    P = p.canonical()
    Q = q.canonical()
    if P == Q or exact_div(Q, P) is not None:
        return P
    if n == 1 and max(P._items[-1][0], Q._items[-1][0]) >= _HALF:
        raise LimitError("gcd: univariate degree 2^%d or more" % (_BITS - 1))
    return _heu_gcd(P, Q).canonical()


# -- Newton polytope -------------------------------------------------------


def newton_dim(p: LaurentPoly) -> int:
    """Dimension of the affine hull of the support."""
    if p.is_zero():
        raise DomainError("Newton polytope of the zero polynomial")
    items, n = p._items, p.nvars
    if len(items) == 1:
        return 0
    if n == 1:
        return 1
    # Difference rows of the biased digits, which differ as the exponents
    # do, decoded only as far as `integer_rank` reads them.
    bias, shifts = _layout(n)
    k0 = items[0][0] + bias
    base = [(k0 >> s) & _MASK for s in shifts]
    return exactla.integer_rank(
        [(((k + bias) >> s) & _MASK) - b for s, b in zip(shifts, base)] for k, _ in items[1:]
    )


class UnivariateForm(Value):
    """A polynomial with at most 1-dimensional support, rewritten as p(h)
    for a primitive direction h: `poly` is univariate, in t."""

    __slots__ = _fields = ("direction", "poly")


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
    g = igcd(*d0)
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
    return UnivariateForm(h, LaurentPoly(1, [((k - kmin,), c) for (_, c), k in zip(p.terms, ks)]))


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
    return _poly(1, tuple((k, c) for k, c in enumerate(a) if c))


def _moebius_divisors(primes) -> list[tuple[int, int]]:
    """(e, mu(e)) over the squarefree divisors e of a number with the given
    distinct primes: 1 first, their product last."""
    divisors = [(1, 1)]
    for p in primes:
        divisors += [(e * p, -mu) for e, mu in divisors]
    return divisors


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d, constant term first.  Phi_d(t) = Phi_r(t^(d/r))
    for the squarefree kernel r of d; for r > 1, Phi_r is the Moebius product
    of the binomials 1 - t^(r/e) over the divisors e of r, taken as power
    series mod t^(phi(r) + 1), one linear pass per binomial."""
    primes = _prime_factors(d)
    if not primes:
        return (-1, 1)
    divisors = _moebius_divisors(primes)
    phi = prod(p - 1 for p in primes)
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


class CyclotomicDecomposition(Value):
    """content * prod Phi_d^mult * remainder = input, up to a unit."""

    __slots__ = _fields = ("content", "factors", "remainder")

    @property
    def is_cyclotomic_product(self) -> bool:
        return self.remainder == LaurentPoly.one(1)


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
    out = 1
    for e, mu in _moebius_divisors(primes):
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
    items = p.canonical()._items
    c = igcd(*[x for _, x in items])
    P = [0] * (items[-1][0] + 1)
    for k, x in items:
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


def evaluate_at_character(p: LaurentPoly, rho) -> tuple[int, ...]:
    """Exact value of p at the torsion character exp(2*pi*i*rho): its
    coefficients on 1, zeta, .., zeta^(phi(m)-1) in Z[zeta_m], m =
    `character_order(rho)`."""
    rho = [Fraction(x) for x in rho]
    if len(rho) != p.nvars:
        raise DomainError("character length does not match variable count")
    m = character_order(rho)
    return tuple(_cyclotomic_residue(p, _character_numerators(rho, m), m))


# -- misc helpers used by higher layers --------------------------------------


def apply_exponent_map(p: LaurentPoly, rows, target_nvars: int) -> LaurentPoly:
    """Push p through the monomial map sending exponent e to M e, where M
    has the given rows (target_nvars x p.nvars)."""
    rows = [tuple(r) for r in rows]
    if len(rows) != target_nvars or any(len(r) != p.nvars for r in rows):
        raise DomainError("exponent map shape mismatch")
    return LaurentPoly(
        target_nvars,
        [(tuple(sum(m * x for m, x in zip(row, e)) for row in rows), c) for e, c in p.terms],
    )
