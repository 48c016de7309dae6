"""The value and report classes against `@dataclass(frozen=True)` twins.

Each class subclasses `alexlab._value.Value` and lists its fields in
`_fields`.  Its twin is built here from that spec with
`dataclasses.make_dataclass`, as the class was declared before `Value`:
equality, hashing, repr and refused assignment must match the twin's on
objects from the corpus."""

import copy
import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest

import alexlab
from alexlab import alexinv, fpgroup, laurent, norms, obstruct, torusgeo
from alexlab._value import Value

from corpus import ALL, SOL3, SUM_PAIRS, TREFOIL, WHITEHEAD


def _value_classes():
    out, todo = [], [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("alexlab."):
                out.append(sub)
                todo.append(sub)
    return out


def _twin(cls):
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def _corpus_objects():
    """At least one object of every value class, from the corpus."""
    objs = []
    for entry in ALL:
        p = entry.presentation
        F = fpgroup.fox_matrix(p)
        objs += [p, F, F.abelianization, alexinv.reduction(F)]
        objs += [alexinv.order_sequence(F, 2), obstruct.qp_test(p), obstruct.kahler_test(p)]
        objs += obstruct.qp_test(p).per_k
        if F.nvars:
            rho = alexinv.CharacterPoint(tuple(Fraction(i + 1, 6) for i in range(F.nvars)))
            objs += [rho, alexinv.cv_dim(F, rho, kmax=2)]
        _, delta = alexinv.first_order(F)
        if not delta.is_zero():
            objs.append(norms.support_polytope(delta))
            form = laurent.line_support(delta)
            if form is not None:
                objs.append(form)
                objs.append(laurent.cyclotomic_decompose(form.poly))
    for a, b in SUM_PAIRS[:3]:
        rep = obstruct.connected_sum_report([a.presentation, b.presentation])
        objs += [rep, *rep.factors]
    _, delta = alexinv.first_order(fpgroup.fox_matrix(WHITEHEAD.presentation))
    data = [
        norms.FiberedDatum(norms.CohomologyClass.of([1, 0]), 1, True),
        norms.FiberedDatum(norms.CohomologyClass.of([1, 1]), 2, False),
    ]
    rep = norms.mcmullen_check(delta, data)
    objs += [rep, *rep.entries, *data, data[0].phi]
    t1 = torusgeo.make_torus(2, [(1, 0)], [Fraction(1, 2), 0])
    t2 = torusgeo.make_torus(2, [(0, 1)], [0, 0])
    objs += [t1, t2, torusgeo.intersect(t1, t2)]
    objs.append(alexlab.MonodromyMatrix.of(2, 1, 1, 1))
    return objs


OBJECTS = _corpus_objects()


def test_the_corpus_has_every_value_class():
    assert {type(x) for x in OBJECTS} == set(_value_classes())
    assert len(_value_classes()) == 21


@pytest.mark.parametrize("cls", _value_classes(), ids=lambda c: c.__name__)
def test_equality_hash_repr_and_assignment_match_the_dataclass_twin(cls):
    twin = _twin(cls)
    objs = [x for x in OBJECTS if type(x) is cls]

    def as_twin(x):
        return twin(*[getattr(x, name) for name in cls._fields])

    for x in objs:
        t = as_twin(x)
        assert repr(x) == repr(t)
        assert hash(x) == hash(t)
        assert not hasattr(x, "__dict__")
        for name in (*x.__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert (x == 1) is (t == 1) is False
    for x, y in itertools.product(objs, repeat=2):
        assert (x == y) is (as_twin(x) == as_twin(y))
        assert (x != y) is (as_twin(x) != as_twin(y))


def test_filled_memos_stay_out_of_equality():
    p = TREFOIL.presentation
    F = fpgroup.fox_matrix(p)
    alexinv.first_order(F)
    assert p.fox is F and F.reduced is not None and F.reduced.orders
    fresh = fpgroup.GroupPresentation(p.generators, p.relators)
    assert fresh.fox is None and fresh == p and hash(fresh) == hash(p)
    G = fpgroup.FoxMatrix(F.entries, F.abelianization)
    assert G.reduced is None and G == F and hash(G) == hash(F)
    assert "fox" not in repr(p) and "reduced" not in repr(F)


def test_memo_slots_belong_to_one_instance():
    p = SOL3.presentation
    q = fpgroup.GroupPresentation(p.generators, p.relators)
    F = fpgroup.fox_matrix(q)
    assert q.fox is F and fpgroup.GroupPresentation(p.generators, p.relators).fox is None
    R1, R2 = alexinv.FoxReduction(0, ()), alexinv.FoxReduction(0, ())
    assert R1.orders is not R2.orders and R1.newton_dims is not R2.newton_dims
    alexinv.order_k(F, 1)
    assert alexinv.reduction(F).orders and not R1.orders and not R2.orders
    with pytest.raises(AttributeError):
        q._remember("generators", ())
    assert q.generators == p.generators


def test_character_point_reduces_rho_mod_one():
    rho = alexinv.CharacterPoint((Fraction(7, 6), Fraction(-1, 3), 2))
    assert rho.rho == (Fraction(1, 6), Fraction(2, 3), Fraction(0))
    assert (rho.order, rho.numerators) == (6, (1, 4, 0))
    same = alexinv.CharacterPoint((Fraction(1, 6), Fraction(2, 3), 0))
    assert rho == same and hash(rho) == hash(same)
    assert repr(rho) == "CharacterPoint(rho=(Fraction(1, 6), Fraction(2, 3), Fraction(0, 1)))"


def test_constructors_take_one_argument_per_field():
    assert torusgeo.IntersectionReport(True, 0, False).dim == 0
    assert norms.NormBall(()).role == "support"
    for args in ((), ((), (), ())):
        with pytest.raises(TypeError):
            fpgroup.GroupPresentation(*args)
    with pytest.raises(TypeError):
        torusgeo.IntersectionReport(True, 0)


def test_copies_and_pickles_rebuild_equal_objects():
    for x in OBJECTS:
        if type(x) is alexinv.FoxReduction:  # its blocks compare by identity
            continue
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and repr(y) == repr(x)
