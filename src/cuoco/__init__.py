"""Law of cosines, constructively.

Exterior squares on a triangle's sides, split by extended altitudes into
six signed rectangles that are pairwise equivalent; the identity
a^2 = b^2 + c^2 - 2bc*cos(alpha) falls out of the equal-area chain. The
same three-sum linear system returns as squared sides (panel areas),
sides (incircle tangent lengths), and angles (circumcenter splits).
"""

from types import ModuleType as _ModuleType

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
    incircle,
)

__version__ = "0.1.0"

# Exported name -> its name in `figures`, which is imported on first use:
# only drawing needs it (PEP 562).
_FIGURE_EXPORTS = {
    "FIGURE_KINDS": "KINDS",
    "FigureSpec": "FigureSpec",
    "KindMismatch": "KindMismatch",
    "figure_construction": "construction",
    "render": "render",
}


def __getattr__(name: str):
    if name in _FIGURE_EXPORTS:
        from . import figures

        return getattr(figures, _FIGURE_EXPORTS[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The public names bound above that are not modules, and the figure exports.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__ += _FIGURE_EXPORTS
