"""Seeded generators for the benchmark's input families.

Everything here is written with the benchmark's own arithmetic: inputs are
produced as `.fp` text, and every property used to filter them (such as
b1) is computed here, never by alexlab and never from a measured runtime.
A word is a list of (generator index, exponent) syllables.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def reduce_word(word):
    """Freely reduce a syllable list, merging adjacent powers."""
    out = []
    for g, e in word:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            e += out.pop()[1]
            if e:
                out.append((g, e))
        else:
            out.append((g, e))
    return out


def inverse(word):
    return [(g, -e) for g, e in reversed(word)]


def fp_text(names, relators) -> str:
    """Canonical `.fp` text of a presentation."""
    lines = ["gens " + " ".join(names)]
    for r in relators:
        toks = [names[g] if e == 1 else "%s^%d" % (names[g], e) for g, e in reduce_word(r)]
        lines.append("rel " + " ".join(toks) if toks else "rel")
    return "\n".join(lines) + "\n"


def rank_q(rows) -> int:
    """Rank over the rationals of an integer matrix given by rows."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def b1_of(ngens: int, relators) -> int:
    rows = [[sum(e for g, e in r if g == j) for j in range(ngens)] for r in relators]
    return ngens - (rank_q(rows) if rows else 0)


def max_exponent(relators) -> int:
    return max((abs(e) for r in relators for _, e in r), default=0)


# -- families ------------------------------------------------------------------


def torus_knot(p: int, q: int):
    return ["a", "b"], [[(0, p), (1, -q)]]


def torus_bundle(a11: int, a12: int, a21: int, a22: int):
    """Mapping torus of the torus, column-action convention."""
    x, y, t = 0, 1, 2
    comm = [(x, 1), (y, 1), (x, -1), (y, -1)]
    r1 = [(t, 1), (x, 1), (t, -1), (y, -a21), (x, -a11)]
    r2 = [(t, 1), (y, 1), (t, -1), (y, -a22), (x, -a12)]
    return ["x", "y", "t"], [comm, r1, r2]


def free_by_cyclic(images):
    """<x1..xm, t | t x_i t^-1 = phi(x_i)> for phi given by its images."""
    m = len(images)
    rels = [[(m, 1), (i, 1), (m, -1)] + inverse(w) for i, w in enumerate(images)]
    return ["x%d" % (i + 1) for i in range(m)] + ["t"], rels


def two_bridge(p: int, q: int):
    """Schubert's presentation of the two-bridge knot or link b(p, q):
    <a, b | a w = w b> for p odd, <a, b | a w = w a> for p even, where
    w = b^e1 a^e2 b^e3 ... with e_i = (-1)^floor(i q / p)."""
    if p % 2 and q % 2 == 0:
        q = p - q  # b(p, q) = b(p, p - q) up to mirror image; q must be odd
    w = []
    for i in range(1, p):
        e = -1 if (i * q // p) % 2 else 1
        w.append((1 if i % 2 else 0, e))
    last = 0 if p % 2 == 0 else 1
    return ["a", "b"], [[(0, 1)] + w + [(last, -1)] + inverse(w)]


def free_product(factors):
    """Disjoint union of generators (suffixed by factor) and relators."""
    names, rels, offset = [], [], 0
    for k, (fnames, frels) in enumerate(factors, start=1):
        names += ["%s_%d" % (n, k) for n in fnames]
        rels += [[(g + offset, e) for g, e in r] for r in frels]
        offset += len(fnames)
    return names, rels


def random_automorphism(rng, m: int, moves: int, fixed=()):
    """Images of x1..xm under a product of random Nielsen moves
    (x_i -> x_i x_j^+-1, x_i -> x_j^+-1 x_i, x_i -> x_i^-1) acting on the
    generators outside `fixed`; a fixed generator is conjugated by a random
    word instead, so its class in the abelianization stays fixed."""
    images = [[(i, 1)] for i in range(m)]
    free = [i for i in range(m) if i not in fixed]
    for _ in range(moves):
        i = rng.choice(free)
        kind = rng.randrange(5)
        if kind == 4 or len(free) == 1:
            images[i] = inverse(images[i])
            continue
        j = rng.choice([k for k in free if k != i])
        w = images[j] if kind % 2 == 0 else inverse(images[j])
        images[i] = reduce_word(images[i] + w if kind < 2 else w + images[i])
    for i in fixed:
        u = [(rng.randrange(m), rng.choice((1, -1))) for _ in range(2)]
        images[i] = reduce_word(u + [(i, 1)] + inverse(u))
    return images


def random_word(rng, ngens: int, length: int):
    """Uniform cyclically reduced word of the given length over gens^+-1."""
    while True:
        w = []
        while len(w) < length:
            s = (rng.randrange(ngens), rng.choice((1, -1)))
            if not (w and w[-1] == (s[0], -s[1])):
                w.append(s)
        if w[0] != (w[-1][0], -w[-1][1]):
            return w


def coprime_pairs(hi: int, pq_lo: int, pq_hi: int):
    """Torus knot parameters 2 <= p < q <= hi, coprime, with p*q in
    [pq_lo, pq_hi], in a fixed order."""
    return [
        (p, q)
        for p in range(2, hi + 1)
        for q in range(p + 1, hi + 1)
        if gcd(p, q) == 1 and pq_lo <= p * q <= pq_hi
    ]
