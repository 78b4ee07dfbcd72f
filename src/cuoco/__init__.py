"""Law of cosines, constructively.

Exterior squares on a triangle's sides, split by extended altitudes into
six signed rectangles that are pairwise equivalent; the identity
a^2 = b^2 + c^2 - 2bc*cos(alpha) falls out of the equal-area chain. The
same three-sum linear system returns as squared sides (panel areas),
sides (incircle tangent lengths), and angles (circumcenter splits).
"""

from .geometry import (
    Classification,
    CollinearPoints,
    GeometryError,
    NonFiniteCoordinate,
    NonPositiveSide,
    Point,
    Triangle,
    TriangleInequalityViolated,
    TriangleMetrics,
    cross,
    distance,
    dot,
    foot_of_altitude,
    norm,
    perp,
    triangle_from_sides,
)
from .cosine_law import (
    DomainError,
    cos_from_sides,
    euclid_defect,
    third_side,
    verify_cosine_identity,
)
from .decomposition import (
    CuocoDecomposition,
    DerivationTrace,
    PairAreas,
    RectanglePanel,
    SimilarityReport,
    SquareOnSide,
    build as build_decomposition,
    derive_cosine_theorem,
    panel_area_exact,
    panel_area_trig,
    shoelace,
    similarity_check,
)
from .three_sum import (
    InterpretationReport,
    Solution,
    ThreeSum,
    all_positive,
    interpret_angles,
    interpret_sides,
    interpret_squares,
    solve,
)
from .circles import (
    CircumcircleData,
    IncircleData,
    circumcircle,
    closed_form_splits,
    incircle,
    tangent_lengths,
)
from .figures import KINDS as FIGURE_KINDS, FigureSpec, KindMismatch, render

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CollinearPoints",
    "CircumcircleData",
    "CuocoDecomposition",
    "DerivationTrace",
    "DomainError",
    "FIGURE_KINDS",
    "FigureSpec",
    "GeometryError",
    "IncircleData",
    "InterpretationReport",
    "KindMismatch",
    "NonFiniteCoordinate",
    "NonPositiveSide",
    "PairAreas",
    "Point",
    "RectanglePanel",
    "SimilarityReport",
    "Solution",
    "SquareOnSide",
    "ThreeSum",
    "Triangle",
    "TriangleInequalityViolated",
    "TriangleMetrics",
    "all_positive",
    "build_decomposition",
    "circumcircle",
    "closed_form_splits",
    "cos_from_sides",
    "cross",
    "derive_cosine_theorem",
    "distance",
    "dot",
    "euclid_defect",
    "foot_of_altitude",
    "incircle",
    "interpret_angles",
    "interpret_sides",
    "interpret_squares",
    "norm",
    "panel_area_exact",
    "panel_area_trig",
    "perp",
    "render",
    "shoelace",
    "similarity_check",
    "solve",
    "tangent_lengths",
    "third_side",
    "triangle_from_sides",
    "verify_cosine_identity",
]
