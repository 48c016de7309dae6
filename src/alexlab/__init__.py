"""alexlab: exact Alexander-type invariants of finitely presented groups.

The library computes order polynomials of Fox matrices, thickness (Newton
polytope dimension), Alexander norms, twisted-homology dimensions at torsion
characters, and the geometry of torsion-translated subtori, and applies
necessary-condition tests for Kahler and quasi-projective groups.
"""

from .errors import AlexlabError, DomainError, LimitError, ParseError
from .exactla import integer_rank, saturate, smith_normal_form
from .laurent import (
    CyclotomicDecomposition,
    LaurentPoly,
    UnivariateForm,
    cyclotomic_decompose,
    cyclotomic_polynomial,
    evaluate_at_character,
    gcd,
    line_support,
    newton_dim,
)
from .fpgroup import (
    AbelianizationData,
    FoxMatrix,
    GroupPresentation,
    abelianize,
    fox_matrix,
    free_product,
    parse_presentation,
    serialize_presentation,
)
from .alexinv import (
    CharacterPoint,
    CvReport,
    OrderSequence,
    cv_dim,
    first_order,
    order_k,
    order_sequence,
    thickness,
)
from .torusgeo import IntersectionReport, TranslatedTorus, intersect, make_torus
from .norms import (
    CohomologyClass,
    FiberedDatum,
    NormBall,
    alexander_norm,
    mcmullen_check,
    support_polytope,
)
from .obstruct import (
    ConnectedSumReport,
    ObstructionReport,
    connected_sum_report,
    kahler_test,
    qp_test,
)
from .builders import MonodromyMatrix, free_by_cyclic, torus_bundle, torus_knot

__version__ = "0.1.0"

__all__ = [
    "AlexlabError",
    "DomainError",
    "LimitError",
    "ParseError",
    "integer_rank",
    "saturate",
    "smith_normal_form",
    "CyclotomicDecomposition",
    "LaurentPoly",
    "UnivariateForm",
    "cyclotomic_decompose",
    "cyclotomic_polynomial",
    "evaluate_at_character",
    "gcd",
    "line_support",
    "newton_dim",
    "AbelianizationData",
    "FoxMatrix",
    "GroupPresentation",
    "abelianize",
    "fox_matrix",
    "free_product",
    "parse_presentation",
    "serialize_presentation",
    "CharacterPoint",
    "CvReport",
    "OrderSequence",
    "cv_dim",
    "first_order",
    "order_k",
    "order_sequence",
    "thickness",
    "IntersectionReport",
    "TranslatedTorus",
    "intersect",
    "make_torus",
    "CohomologyClass",
    "FiberedDatum",
    "NormBall",
    "alexander_norm",
    "mcmullen_check",
    "support_polytope",
    "ConnectedSumReport",
    "ObstructionReport",
    "connected_sum_report",
    "kahler_test",
    "qp_test",
    "MonodromyMatrix",
    "free_by_cyclic",
    "torus_bundle",
    "torus_knot",
]
