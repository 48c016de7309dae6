"""Finitely presented groups: the .fp text format, free abelianization via
Smith normal form, Fox derivatives over Z[H], and free products.
"""

from __future__ import annotations

import re
from functools import reduce

from . import exactla
from ._value import Value
from .errors import DomainError, LimitError, ParseError, limit_from_env
from .laurent import LaurentPoly

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

DEFAULT_MAX_LETTERS = 1_000_000


def max_fox_letters() -> int:
    """Letters (sum of |exponent| over all relators) a Fox matrix may expand:
    default 10^6, override with the ALEXLAB_MAX_LETTERS environment variable."""
    return limit_from_env("ALEXLAB_MAX_LETTERS", DEFAULT_MAX_LETTERS)


def _reduced_word(pairs, ngens: int) -> tuple[tuple[int, int], ...]:
    """The freely reduced word of (generator index, exponent) int pairs, each
    index in 0 <= g < ngens: adjacent syllables on distinct generators, no
    zero exponent.  Any other entry raises DomainError, and a bool is taken
    as its int."""
    out: list[list[int]] = []
    for g, e in pairs:
        if not (isinstance(g, int) and isinstance(e, int)):
            raise DomainError("word syllables must be integer pairs, got %r" % ((g, e),))
        if not 0 <= g < ngens:
            raise DomainError("generator index %d is out of range for %d generators" % (g, ngens))
        g, e = int(g), int(e)
        if e == 0:
            continue
        if out and out[-1][0] == g:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([g, e])
    # out is a stack whose neighbours always differ in generator, so a
    # cancellation at the top exposes no new adjacent pair.
    return tuple((g, e) for g, e in out)


class GroupPresentation(Value):
    """A tuple of generator names, each one that .fp text can hold, and
    relators, each a freely reduced tuple of (generator index, nonzero
    exponent) pairs.  The constructor takes the names as any iterable, and
    each relator as any iterable of int pairs, which it reduces."""

    _fields = ("generators", "relators")
    # The memo `fox` is the abelianized Fox matrix, set by `fox_matrix` on
    # first use, so every analysis of this object shares one matrix and its
    # reduction.  Equal presentations built separately share nothing.
    __slots__ = _fields + ("fox",)

    def __init__(self, generators, relators):
        generators = tuple(generators)
        for name in generators:
            if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
                raise DomainError("bad generator name %r" % (name,))
        if len(set(generators)) != len(generators):
            raise DomainError("duplicate generator names")
        n = len(generators)
        Value.__init__(self, generators, tuple(_reduced_word(r, n) for r in relators), None)


class AbelianizationData(Value):
    """b1, invariant factors > 1, and each generator's image in the free
    part H = H_1/torsion, written in a fixed basis of Z^b1."""

    __slots__ = _fields = ("b1", "torsion", "images")


class FoxMatrix(Value):
    """Abelianized Fox-derivative matrix: one row per relator, one column
    per generator, entries in Z[H] as Laurent polynomials in b1 variables."""

    _fields = ("entries", "abelianization")
    # The memo `reduced` is the block/unit-pivot reduction, set by
    # `alexinv.reduction` on first use.
    __slots__ = _fields + ("reduced",)

    def __init__(self, entries, abelianization):
        Value.__init__(self, entries, abelianization, None)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else len(self.abelianization.images)

    @property
    def nvars(self) -> int:
        return self.abelianization.b1


# -- parsing and serialization ------------------------------------------------


def _parse_token(tok: str, gen_index: dict) -> tuple[int, int]:
    if "^" in tok:
        name, _, exp = tok.partition("^")
        try:
            e = int(exp)
        except ValueError:
            raise ParseError("malformed exponent in token %r" % tok)
        if e == 0:
            raise ParseError("zero exponent in token %r" % tok)
        if exp != str(e):
            raise ParseError("malformed exponent in token %r" % tok)
    else:
        name, e = tok, 1
    if name not in gen_index:
        raise ParseError("unknown generator %r" % name)
    return gen_index[name], e


def parse_presentation(text: str) -> GroupPresentation:
    """Parse the line-oriented .fp format.

    First non-comment line: `gens <name> ...`; each later line
    `rel <token> ...` with tokens `name`, `name^-1`, or `name^k`.
    `#` starts a comment.  Relators that reduce to the empty word are kept.
    """
    gens: list[str] | None = None
    gen_index: dict = {}
    relators: list[list[tuple[int, int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head, rest = parts[0], parts[1:]
        if head == "gens":
            if gens is not None:
                raise ParseError("line %d: duplicate gens line" % lineno)
            for name in rest:
                if not _NAME_RE.fullmatch(name):
                    raise ParseError("line %d: bad generator name %r" % (lineno, name))
                if name in gen_index:
                    raise ParseError(
                        "line %d: duplicate generator declaration %r" % (lineno, name)
                    )
                gen_index[name] = len(gen_index)
            gens = list(gen_index)
        elif head == "rel":
            if gens is None:
                raise ParseError("line %d: rel before gens" % lineno)
            try:
                relators.append([_parse_token(t, gen_index) for t in rest])
            except ParseError as exc:
                raise ParseError("line %d: %s" % (lineno, exc))
        else:
            raise ParseError("line %d: expected 'gens' or 'rel', got %r" % (lineno, head))
    if gens is None:
        raise ParseError("no gens line found")
    return GroupPresentation(tuple(gens), tuple(relators))


def serialize_presentation(p: GroupPresentation) -> str:
    """Canonical .fp text: single spaces, freely reduced, collapsed exponents."""
    lines = ["gens" + "".join(" " + g for g in p.generators)]
    for r in p.relators:
        toks = []
        for g, e in r:
            toks.append(p.generators[g] if e == 1 else "%s^%d" % (p.generators[g], e))
        lines.append("rel" + "".join(" " + t for t in toks))
    return "\n".join(lines) + "\n"


# -- abelianization ------------------------------------------------------------


def abelianize(p: GroupPresentation) -> AbelianizationData:
    """b1, torsion invariant factors, and generator images in Z^b1, read off
    the Smith normal form of the abelianized relator matrix."""
    g = len(p.generators)
    if g == 0:
        return AbelianizationData(0, (), ())
    # With no relator, a zero row keeps the SNF shapes uniform.
    rows = [[0] * g for _ in p.relators] or [[0] * g]
    for row, r in zip(rows, p.relators):
        for gen, e in r:
            row[gen] += e
    _, diag, V = exactla.smith_normal_form(rows)
    diag += [0] * (g - len(diag))
    free_cols = [j for j in range(g) if diag[j] == 0]
    torsion = tuple(x for x in diag if x > 1)
    # Deterministic basis: flip any free column whose first nonzero entry is
    # negative (composes the quotient with a diagonal +-1 automorphism).
    signs = []
    for j in free_cols:
        s = 1
        for i in range(g):
            if V[i][j]:
                s = 1 if V[i][j] > 0 else -1
                break
        signs.append(s)
    images = tuple(
        tuple(s * V[i][j] for s, j in zip(signs, free_cols)) for i in range(g)
    )
    return AbelianizationData(len(free_cols), torsion, images)


# -- Fox calculus ---------------------------------------------------------------


def fox_matrix(p: GroupPresentation) -> FoxMatrix:
    """Abelianized Fox derivatives, with the left-action convention
    d(uv)/dx = du/dx + u dv/dx, dx/dx = 1, d(x^-1)/dx = -x^-1.

    A syllable x^e with prefix u contributes u(1 + x + ... + x^(e-1)) to
    the x entry, and x^-e contributes -u x^-e (1 + x + ... + x^(e-1)).  The
    |e| exponent vectors b, b + x, .., b + (|e|-1)x of one syllable are one
    run (b, x, |e|, sign), and each entry is built from its runs by
    `LaurentPoly._from_runs`, where a run's keys are one range (the key map
    is linear), so no Python code runs per letter to build them.  The cost
    is linear in the letter count, which is checked against
    `max_fox_letters` before any expansion.

    The matrix is computed once per presentation object and kept on it (the
    `fox` slot); later calls on the same object check the letter budget
    again and return the same matrix, with its reduction and orders.
    """
    letters = sum(abs(e) for r in p.relators for _, e in r)
    limit = max_fox_letters()
    if letters > limit:
        raise LimitError(
            "Fox expansion of %d letters exceeds the limit of %d; "
            "set ALEXLAB_MAX_LETTERS to raise the limit" % (letters, limit)
        )
    if p.fox is not None:
        return p.fox
    ab = abelianize(p)
    n = ab.b1
    g = len(p.generators)
    rows = []
    zero = LaurentPoly.zero(n)
    for r in p.relators:
        runs = [[] for _ in range(g)]
        prefix = (0,) * n
        for gen, e in r:
            img = ab.images[gen]
            after = tuple(u + e * x for u, x in zip(prefix, img))
            base, sign = (prefix, 1) if e > 0 else (after, -1)
            runs[gen].append((base, img, abs(e), sign))
            prefix = after
        rows.append(tuple(LaurentPoly._from_runs(n, rs) if rs else zero for rs in runs))
    return p._remember("fox", FoxMatrix(tuple(rows), ab))


# -- free products ---------------------------------------------------------------


def _fresh_name(name: str, taken: set) -> str:
    while name in taken:
        name = name + "_2"
    return name


def free_product(p1: GroupPresentation, p2: GroupPresentation) -> GroupPresentation:
    """Disjoint union of generators and relators; clashing names from the
    second factor get a `_2` suffix (repeated until unique)."""
    names = list(p1.generators)
    taken = set(names)
    for g in p2.generators:
        fresh = _fresh_name(g, taken)
        names.append(fresh)
        taken.add(fresh)
    offset = len(p1.generators)
    relators = list(p1.relators) + [[(g + offset, e) for g, e in r] for r in p2.relators]
    return GroupPresentation(tuple(names), relators)


def free_product_many(ps) -> GroupPresentation:
    ps = list(ps)
    if not ps:
        raise DomainError("free product of an empty family")
    return reduce(free_product, ps)
