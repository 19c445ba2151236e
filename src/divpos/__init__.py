"""divpos: exact positivity checks for Q- and R-divisors on surfaces.

Ampleness and bigness of divisors with exact rational or real quadratic
coefficients are decided through the integral-part operator on surfaces
with explicitly known Picard lattices and cone generators.  No floating
point enters any decision path.
"""

from divpos._kernels import BACKEND
from divpos.divisor import (
    RDivisor,
    ZDivisor,
    enumerate_Tm,
    fractional_part,
    integral_part,
    lemma_dr_decompose,
    parse_divisor,
    round_decompose,
)
from divpos.errors import (
    ConfigError,
    DivposError,
    InternalError,
    InvalidInput,
    MixedFieldError,
    OracleUnavailable,
    RepresentationError,
)
from divpos.exact_numbers import QuadExt, floor, frac, parse_quadext, sign, sqrt_of, weyl_find
from divpos.positivity import (
    Evaluation,
    PositivityReport,
    build_report,
    intersect,
    is_ample_cone,
    is_big,
    is_nef,
)
from divpos.surface import CurveClass, SurfaceModel, cohomology, hirzebruch, projective_plane, resolve_surface

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ConfigError",
    "CurveClass",
    "DivposError",
    "Evaluation",
    "InternalError",
    "InvalidInput",
    "MixedFieldError",
    "OracleUnavailable",
    "PositivityReport",
    "QuadExt",
    "RDivisor",
    "RepresentationError",
    "SurfaceModel",
    "ZDivisor",
    "__version__",
    "build_report",
    "cohomology",
    "enumerate_Tm",
    "floor",
    "frac",
    "fractional_part",
    "hirzebruch",
    "integral_part",
    "intersect",
    "is_ample_cone",
    "is_big",
    "is_nef",
    "lemma_dr_decompose",
    "parse_divisor",
    "parse_quadext",
    "projective_plane",
    "resolve_surface",
    "round_decompose",
    "sign",
    "sqrt_of",
    "weyl_find",
]
