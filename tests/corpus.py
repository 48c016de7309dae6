"""Named corpus of presentations shared across the test modules.

Metadata (fibered flags, fiber Euler characteristics, counts of
non-equivalent fibered faces, Thurston norms) is declared input in the
sense of the package: the tests never compute it.
"""

from dataclasses import dataclass

from alexlab import (
    GroupPresentation,
    MonodromyMatrix,
    free_by_cyclic,
    parse_presentation,
    torus_bundle,
    torus_knot,
)


@dataclass(frozen=True)
class Entry:
    name: str
    presentation: GroupPresentation
    b1: int
    fibered: bool = False
    fiber_chi: int | None = None
    fibered_faces: int | None = None


def _inverse(w):
    return [(g, -e) for g, e in reversed(w)]


def whitehead_presentation() -> GroupPresentation:
    # Two-bridge presentation b(8,3): <a, b | a w a^-1 w^-1>,
    # w = b a b^-1 a^-1 b^-1 a b; the constructor reduces the relator.
    w = [(1, 1), (0, 1), (1, -1), (0, -1), (1, -1), (0, 1), (1, 1)]
    return GroupPresentation(("a", "b"), ([(0, 1)] + w + [(0, -1)] + _inverse(w),))


TRIVIAL = Entry("trivial", GroupPresentation((), ()), b1=0)
Z = Entry("Z", GroupPresentation(("a",), ()), b1=1)
Z2_CYCLIC = Entry("Z/2", parse_presentation("gens x\nrel x^2\n"), b1=0)
F2 = Entry("F2", GroupPresentation(("a", "b"), ()), b1=2)
ZZ = Entry(
    "Z^2", parse_presentation("gens a b\nrel a b a^-1 b^-1\n"), b1=2
)
ZZZ = Entry(
    "Z^3",
    parse_presentation(
        "gens a b c\nrel a b a^-1 b^-1\nrel a c a^-1 c^-1\nrel b c b^-1 c^-1\n"
    ),
    b1=3,
)
TREFOIL = Entry("trefoil", torus_knot(2, 3), b1=1, fibered=True, fiber_chi=-1)
T25 = Entry("torus(2,5)", torus_knot(2, 5), b1=1, fibered=True, fiber_chi=-3)
T34 = Entry("torus(3,4)", torus_knot(3, 4), b1=1, fibered=True, fiber_chi=-5)
KLEIN = Entry(
    "klein", free_by_cyclic([[(0, -1)]]), b1=1, fibered=True, fiber_chi=0
)
FIG8 = Entry(
    "fig8",
    free_by_cyclic([[(0, 1), (1, 1)], [(1, 1), (0, 1), (1, 1)]]),
    b1=1,
    fibered=True,
    fiber_chi=-1,
)
SOL3 = Entry(
    "sol(trace 3)",
    torus_bundle(MonodromyMatrix.of(2, 1, 1, 1)),
    b1=1,
    fibered=True,
    fiber_chi=0,
)
ROT4 = Entry("rot4 bundle", torus_bundle(MonodromyMatrix.of(0, -1, 1, 0)), b1=1)
WHITEHEAD = Entry(
    "whitehead",
    whitehead_presentation(),
    b1=2,
    fibered=True,
    fiber_chi=-1,
    fibered_faces=2,
)

ALL = (
    TRIVIAL,
    Z,
    Z2_CYCLIC,
    F2,
    ZZ,
    ZZZ,
    TREFOIL,
    T25,
    T34,
    KLEIN,
    FIG8,
    SOL3,
    ROT4,
    WHITEHEAD,
)

# Pairs used by the free-product additivity checks.
SUM_PAIRS = (
    (TREFOIL, TREFOIL),
    (TREFOIL, FIG8),
    (FIG8, FIG8),
    (TREFOIL, Z2_CYCLIC),
    (SOL3, Z2_CYCLIC),
    (SOL3, TREFOIL),
    (FIG8, KLEIN),
    (KLEIN, KLEIN),
    (TREFOIL, ZZ),
    (WHITEHEAD, TREFOIL),
)
