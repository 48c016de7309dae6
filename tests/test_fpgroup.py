import random

import pytest
from hypothesis import given, settings, strategies as st

from alexlab import fpgroup
from alexlab.builders import free_by_cyclic, torus_knot
from alexlab.errors import DomainError, LimitError, ParseError
from alexlab.fpgroup import (
    AbelianizationData,
    GroupPresentation,
    abelianize,
    fox_matrix,
    free_product,
    parse_presentation,
    serialize_presentation,
)
from alexlab.laurent import LaurentPoly

from corpus import ALL, TREFOIL, ZZ


def assert_fox_identity(p):
    """sum_j dr/dx_j * (x_j - 1) = r - 1 = 0 in Z[H], for every relator."""
    F = fox_matrix(p)
    n = F.nvars
    for row in F.entries:
        total = LaurentPoly.zero(n)
        for j, entry in enumerate(row):
            img = F.abelianization.images[j]
            mon = LaurentPoly.monomial(n, img) - LaurentPoly.one(n)
            total = total + entry * mon
        assert total.is_zero()


# -- relators ----------------------------------------------------------------------


def _relators(*words):
    return GroupPresentation(("a", "b", "c"), words).relators


def test_word_free_reduction():
    assert _relators([(0, 1), (0, -1)]) == ((),)
    assert _relators([(0, 2), (1, 1), (1, -1), (0, -2), (2, 3)]) == (((2, 3),),)
    assert _relators([(0, 1), (1, 2), (1, -1)]) == (((0, 1), (1, 1)),)
    # Any iterable of pairs; the stored relators are tuples.
    assert _relators(iter([(0, 1), (2, 2)]), ((1, -1),)) == (((0, 1), (2, 2)), ((1, -1),))


def test_word_inverse_and_product():
    # free_by_cyclic's relator t x_1 t^-1 w^-1 for w = x_1^2 x_2^-3: its
    # inverse and product are reduced by the constructor.
    p = free_by_cyclic([[(0, 2), (1, -3)], [(1, 1), (0, 1), (0, -1)]])
    assert p.relators == (
        ((2, 1), (0, 1), (2, -1), (1, 3), (0, -2)),
        ((2, 1), (1, 1), (2, -1), (1, -1)),
    )


def test_word_refuses_non_integer_syllables():
    # int() would truncate them, and torus_knot(2.5, 3) would build T(2, 3).
    for pairs in ([(0, 1.5)], [(1.9, 2)], [(0, "2")], [("0", 1)], [(0, 1), (1, 2.0)]):
        with pytest.raises(DomainError):
            _relators(pairs)
    with pytest.raises(DomainError):
        torus_knot(2.5, 3)
    (w,) = _relators([(True, True), (0, 2)])
    assert w == ((1, 1), (0, 2))
    assert all(type(x) is int for s in w for x in s)


def test_negative_generator_index_is_refused():
    # An index of -1 was read as the last generator: `rel b^2`, torsion (2,).
    for bad in (-1, 2, 5):
        with pytest.raises(DomainError, match="index"):
            GroupPresentation(("a", "b"), ([(bad, 2)],))
    with pytest.raises(DomainError, match="index"):
        GroupPresentation(("a", "b"), ([(0, 1), (-1, 0)],))  # even with exponent 0
    with pytest.raises(DomainError, match="index"):
        GroupPresentation(("a", "b"), ([(7, 1), (7, -1)],))  # even if it cancels
    with pytest.raises(DomainError, match="index"):
        free_by_cyclic([[(-1, 1)], [(0, 1)]])
    with pytest.raises(DomainError, match="index"):
        free_by_cyclic([[(2, 1)], [(0, 1)]])  # t is no image letter


def test_unreduced_relator_is_stored_reduced():
    # Stored as given, it serialized to `rel a^0 a a^-1`, which does not
    # parse.
    p = GroupPresentation(("a",), ([(0, 0), (0, 1), (0, -1)], [(0, 2), (0, 0), (0, 1)]))
    assert p.relators == ((), ((0, 3),))
    text = serialize_presentation(p)
    assert text == "gens a\nrel\nrel a^3\n"
    assert parse_presentation(text) == p


def test_generator_names_that_fp_text_cannot_hold_are_refused():
    # ("a b",) serialized to `gens a b`, two generators.
    for names in (("a b",), ("a", ""), ("1a",), ("a\n",), ("a#",), ("a-b",), (1,), ("a", None)):
        with pytest.raises(DomainError, match="generator name"):
            GroupPresentation(names, ())
    names = ("gens", "rel", "x_1", "B2")
    assert GroupPresentation(names, ()).generators == names
    # Names given as a list are kept as a tuple: hashable, and equal to
    # the parse of their text.
    p = GroupPresentation(list(names), [[(3, 1)]])
    assert p.generators == names and hash(p) == hash(parse_presentation(serialize_presentation(p)))
    with pytest.raises(ParseError, match="line 2: bad generator name"):
        parse_presentation("\ngens a 1b\n")


_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True)


@st.composite
def _raw_presentations(draw):
    """Valid names and raw pair lists: zero exponents and neighbours that
    cancel or merge are drawn on purpose."""
    names = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    g = len(names)
    pair = st.tuples(st.integers(0, g - 1), st.integers(-3, 3))
    rels = []
    for raw in draw(st.lists(st.lists(pair, max_size=6), max_size=4)):
        if raw and draw(st.booleans()):
            i = draw(st.integers(0, len(raw) - 1))
            g_i, e_i = raw[i]
            raw = raw[: i + 1] + [(g_i, -e_i), (g_i, 0)] + raw[i + 1 :]
        rels.append(raw)
    return GroupPresentation(tuple(names), rels)


@settings(max_examples=200, deadline=None)
@given(_raw_presentations())
def test_serialize_round_trip_of_raw_pairs(p):
    for r in p.relators:
        assert all(e != 0 for _, e in r)
        assert all(a[0] != b[0] for a, b in zip(r, r[1:]))
    assert parse_presentation(serialize_presentation(p)) == p


# -- parsing -------------------------------------------------------------------


def test_parse_basic():
    p = parse_presentation("gens a b\nrel a b a^-1 b^-1\n")
    assert p.generators == ("a", "b")
    assert len(p.relators) == 1
    assert sum(abs(e) for _, e in p.relators[0]) == 4


def test_parse_rel_before_gens():
    with pytest.raises(ParseError):
        parse_presentation("rel a\n")


def test_parse_keeps_empty_relator():
    p = parse_presentation("gens a\nrel a a^-1\n")
    assert len(p.relators) == 1
    assert p.relators[0] == ()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_presentation("gens a a\nrel a\n")  # duplicate declaration
    with pytest.raises(ParseError):
        parse_presentation("gens a\nrel b\n")  # unknown generator
    with pytest.raises(ParseError):
        parse_presentation("gens a\nrel a^x\n")  # malformed exponent
    with pytest.raises(ParseError):
        parse_presentation("gens a\nrel a^0\n")  # zero exponent
    with pytest.raises(ParseError):
        parse_presentation("")  # no gens line
    with pytest.raises(ParseError):
        parse_presentation("gens a\ngens b\n")  # two gens lines


def test_parse_comments_and_exponents():
    p = parse_presentation("# header\ngens a b  # trailing\nrel a^3 b^-2\n")
    assert p.relators[0] == ((0, 3), (1, -2))


def test_serialize_round_trip():
    for entry in ALL:
        text = serialize_presentation(entry.presentation)
        again = parse_presentation(text)
        assert again.generators == entry.presentation.generators
        assert again.relators == entry.presentation.relators
        assert serialize_presentation(again) == text


# -- abelianization ----------------------------------------------------------------


def test_abelianize_z2():
    ab = abelianize(ZZ.presentation)
    assert (ab.b1, ab.torsion) == (2, ())
    assert ab.images == ((1, 0), (0, 1))


def test_abelianize_trefoil():
    ab = abelianize(TREFOIL.presentation)
    assert (ab.b1, ab.torsion) == (1, ())
    assert ab.images == ((3,), (2,))
    # oracle: images must kill the abelianized relator
    assert 2 * ab.images[0][0] - 3 * ab.images[1][0] == 0


def test_abelianize_torsion():
    ab = abelianize(parse_presentation("gens x\nrel x^2\n"))
    assert (ab.b1, ab.torsion) == (0, (2,))


def test_abelianize_corpus_b1():
    for entry in ALL:
        assert abelianize(entry.presentation).b1 == entry.b1, entry.name


def test_images_generate():
    for entry in ALL:
        ab = abelianize(entry.presentation)
        if ab.b1 == 0:
            continue
        from alexlab import exactla

        _, diag, _ = exactla.smith_normal_form(ab.images)
        assert sum(1 for d in diag if d == 1) == ab.b1


# -- Fox matrices -------------------------------------------------------------------


def test_fox_z2():
    F = fox_matrix(ZZ.presentation)
    t1 = LaurentPoly.variable(2, 0)
    t2 = LaurentPoly.variable(2, 1)
    one = LaurentPoly.one(2)
    assert F.entries == ((one - t2, t1 - one),)


def test_fox_trefoil():
    F = fox_matrix(TREFOIL.presentation)
    t = LaurentPoly.variable(1, 0)
    one = LaurentPoly.one(1)
    assert F.entries[0][0] == one + t**3
    assert F.entries[0][1] == -(one + t**2 + t**4)


def test_fox_no_relators():
    F = fox_matrix(GroupPresentation(("a", "b"), ()))
    assert F.rows == 0 and F.cols == 2


def test_fox_b1_zero_gives_integer_entries():
    F = fox_matrix(parse_presentation("gens x\nrel x^2\n"))
    assert F.nvars == 0
    assert F.entries[0][0] == LaurentPoly.constant(0, 2)


def test_fox_identity_on_corpus():
    for entry in ALL:
        assert_fox_identity(entry.presentation)


def _reference_fox_matrix(p):
    """Entries of `fox_matrix` as first written: one monomial added per
    letter of each relator."""
    ab = abelianize(p)
    n = ab.b1
    rows = []
    for r in p.relators:
        row = [LaurentPoly.zero(n) for _ in p.generators]
        prefix = [0] * n
        for gen, e in r:
            step = 1 if e > 0 else -1
            img = ab.images[gen]
            for _ in range(abs(e)):
                if step == -1:
                    prefix = [u - x for u, x in zip(prefix, img)]
                row[gen] = row[gen] + LaurentPoly.monomial(n, prefix, step)
                if step == 1:
                    prefix = [u + x for u, x in zip(prefix, img)]
        rows.append(tuple(row))
    return tuple(rows)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.lists(
                st.lists(st.tuples(st.integers(0, g - 1), st.integers(-6, 6)), max_size=6),
                max_size=3,
            ),
        )
    )
)
def test_fox_matrix_matches_per_letter_reference(case):
    # Exponents up to 6 with torsion in the abelianization (images that
    # vanish or repeat) exercise the geometric series and its cancellations.
    g, rels = case
    p = GroupPresentation(tuple("x%d" % i for i in range(g)), rels)
    assert fox_matrix(p).entries == _reference_fox_matrix(p)


def _per_letter_fox(p, ab):
    """Entries of `fox_matrix` by the loop it ran before syllables were
    expanded by ranges: one exponent tuple built per letter."""
    n = ab.b1
    rows = []
    for r in p.relators:
        row = [{} for _ in p.generators]
        prefix = (0,) * n
        for gen, e in r:
            img = ab.images[gen]
            acc = row[gen]
            after = tuple(u + e * x for u, x in zip(prefix, img))
            base, sign = (prefix, 1) if e > 0 else (after, -1)
            for i in range(abs(e)):
                key = tuple(b + i * x for b, x in zip(base, img))
                acc[key] = acc.get(key, 0) + sign
            prefix = after
        rows.append(tuple(LaurentPoly(n, tuple(sorted((e, c) for e, c in acc.items() if c))) for acc in row))
    return tuple(rows)


@st.composite
def _long_syllable_cases(draw):
    """A presentation with exponents in [-400, 400] on 1..3 generators, and
    either None (use its own abelianization, with torsion images that vanish
    where relators such as x^e kill a generator) or images drawn directly,
    components in [-2, 2], b1 from 0 to 3."""
    g = draw(st.integers(1, 3))
    syllable = st.tuples(st.integers(0, g - 1), st.integers(-400, 400).filter(bool))
    rels = draw(st.lists(st.lists(syllable, min_size=1, max_size=5), min_size=1, max_size=3))
    p = GroupPresentation(tuple("x%d" % i for i in range(g)), rels)
    if draw(st.booleans()):
        return p, None
    n = draw(st.integers(0, 3))
    images = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=g, max_size=g))
    return p, AbelianizationData(n, (), tuple(images))


@settings(max_examples=60, deadline=None)
@given(_long_syllable_cases())
def test_fox_matrix_by_ranges_matches_per_letter_loop(case):
    # Long syllables against the per-letter loop: negative and zero image
    # components, b1 = 0 and generators repeated within a relator.
    p, ab = case
    with pytest.MonkeyPatch.context() as mp:
        if ab is not None:
            mp.setattr(fpgroup, "abelianize", lambda _: ab)
        F = fox_matrix(p)
    assert F.entries == _per_letter_fox(p, F.abelianization)


def test_fox_matrix_by_ranges_on_torsion_and_rank_zero():
    cases = (
        "gens a b\nrel a^300 b^-300\n",
        "gens a b c\nrel c^7\nrel a^-250 c^40 b^3 a^250 c^-3 b^-3\n",  # c is torsion
        "gens a b\nrel a b\nrel a^-400 b^-399 a^400 b^399\n",  # b = a^-1: a negative image
        "gens x\nrel x^-400\n",  # b1 = 0
    )
    for text in cases:
        p = parse_presentation(text)
        assert fox_matrix(p).entries == _per_letter_fox(p, abelianize(p)), text


def test_fox_letter_budget(monkeypatch):
    with pytest.raises(LimitError, match="99999999999999 letters"):
        fox_matrix(parse_presentation("gens a\nrel a^99999999999999\n"))
    monkeypatch.setenv("ALEXLAB_MAX_LETTERS", "11")
    fox_matrix(parse_presentation("gens a b\nrel a^5 b^-6\n"))
    with pytest.raises(LimitError, match="12 letters exceeds the limit of 11"):
        fox_matrix(parse_presentation("gens a b\nrel a^5 b^-6\nrel a\n"))
    monkeypatch.setenv("ALEXLAB_MAX_LETTERS", "many")
    with pytest.raises(LimitError, match="ALEXLAB_MAX_LETTERS must be an integer"):
        fox_matrix(TREFOIL.presentation)


# -- free products -------------------------------------------------------------------


def test_free_product_free_groups():
    f1 = GroupPresentation(("a",), ())
    p = free_product(f1, f1)
    assert len(p.generators) == 2 and not p.relators
    assert p.generators == ("a", "a_2")


def test_free_product_trefoil_z2():
    p = free_product(TREFOIL.presentation, parse_presentation("gens x\nrel x^2\n"))
    assert len(p.generators) == 3
    assert len(p.relators) == 2
    assert_fox_identity(p)


def test_free_product_with_empty():
    empty = GroupPresentation((), ())
    p = free_product(empty, TREFOIL.presentation)
    assert p.generators == TREFOIL.presentation.generators
    assert p.relators == TREFOIL.presentation.relators


def test_free_product_b1_additive():
    rng = random.Random(6)
    entries = list(ALL)
    for _ in range(15):
        e1, e2 = rng.choice(entries), rng.choice(entries)
        p = free_product(e1.presentation, e2.presentation)
        assert abelianize(p).b1 == e1.b1 + e2.b1
