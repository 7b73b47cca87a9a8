"""Exact-arithmetic local data of elliptic curves over Q.

Kodaira types and Tamagawa numbers via Tate's algorithm at every prime,
real-component counts, rational torsion subgroups, 3-isogeny quotient
curves with their local Tamagawa ratios, and exhaustive scans of the
parametrized torsion families behind the divisibility statements.
"""

from .arith import Factorization, IncompleteFactorizationError, factor, is_prime, valuation
from .curves import (
    CurveAnalysis,
    SingularCurveError,
    Transformation,
    WeierstrassCurve,
    curve_from_c4c6,
    minimal_model,
)
from .reduction import (
    KodairaType,
    LocalDatum,
    UnsupportedDomainError,
    bad_primes,
    c_infinity,
    conductor,
    global_root_number_semistable,
    global_tamagawa,
    local_data,
    local_root_number,
    tate,
)
from .torsion import Point, TorsionStructure, group_law_add, point_order, torsion_subgroup
from .families import (
    IsogenyPair,
    ThreeTorsionNormalForm,
    four_torsion_curve,
    hadano_quotient,
    quotient_split_prime,
    three_torsion_normalize,
    two_six_curve,
    two_torsion_curve,
)

__version__ = "0.1.0"

__all__ = [
    "Factorization",
    "IncompleteFactorizationError",
    "factor",
    "is_prime",
    "valuation",
    "CurveAnalysis",
    "SingularCurveError",
    "Transformation",
    "WeierstrassCurve",
    "curve_from_c4c6",
    "minimal_model",
    "KodairaType",
    "LocalDatum",
    "UnsupportedDomainError",
    "bad_primes",
    "c_infinity",
    "conductor",
    "global_root_number_semistable",
    "global_tamagawa",
    "local_data",
    "local_root_number",
    "tate",
    "Point",
    "TorsionStructure",
    "group_law_add",
    "point_order",
    "torsion_subgroup",
    "IsogenyPair",
    "ThreeTorsionNormalForm",
    "four_torsion_curve",
    "hadano_quotient",
    "quotient_split_prime",
    "three_torsion_normalize",
    "two_six_curve",
    "two_torsion_curve",
]
