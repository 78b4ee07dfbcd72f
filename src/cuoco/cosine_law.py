"""The cosine identity, in modern form and as a signed Euclid-style defect.

The defect formulation unifies the acute and obtuse cases: for the angle
at B, the side AC satisfies AC^2 = AB^2 + BC^2 - defect with
defect = 2 * BC * BD, BD being the signed projection of BA onto BC. BD
(and with it the defect) flips sign exactly when the angle at B passes a
right angle.
"""

from __future__ import annotations

import math

from .geometry import (VERTICES, GeometryError, Triangle, TriangleMetrics, frame_getter,
                       _check_sides, _check_vertex)

_DEFECT = {v: frame_getter(f"defect_{v} residual_{v}") for v in VERTICES}


class DomainError(GeometryError):
    """Angle argument outside its open domain."""


def third_side(a: float, b: float, gamma: float) -> float:
    """Length of the side opposite gamma, given the two enclosing sides."""
    _check_sides(a, b)
    if not (0.0 < gamma < math.pi):
        raise DomainError(f"gamma must lie in (0, pi), got {gamma!r}")
    k = min(math.frexp(max(a, b))[1], 0)  # tiny sides scaled as in cos_from_sides, and back
    if k:
        a, b = math.ldexp(a, -k), math.ldexp(b, -k)
    value = a * a + b * b - 2.0 * a * b * math.cos(gamma)
    return math.ldexp(math.sqrt(value if value > 0.0 else 0.0), k)


def cos_from_sides(a: float, b: float, c: float) -> float:
    """Cosine of the angle opposite c, between the sides of length a and b."""
    _check_sides(a, b, c)
    # Below 1/2, divide by the longest side's power of two, which is exact,
    # so the squares of tiny sides do not underflow to zero. Larger sides,
    # integers among them, keep their exact squares.
    _, k = math.frexp(max(a, b, c))
    if k < 0:
        a, b, c = math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(c, -k)
    return (a * a + b * b - c * c) / (2.0 * a * b)


def euclid_defect(t: Triangle, at_vertex: str) -> tuple[float, float]:
    """Signed defect at a vertex and the residual of the classical identity.

    Returns (defect, residual) with defect = 2 * dot of the two side
    vectors leaving the vertex (equal to 2 * BC * BD in the classical
    reading) and residual = opp^2 - adj1^2 - adj2^2 + defect, which is
    zero in exact arithmetic. Integer coordinates give integer results.
    Each square is the dot of a side vector with itself; a vector and its
    negation square alike, so which way a side runs does not matter.
    """
    _check_vertex(at_vertex)
    return _DEFECT[at_vertex](t.frame)


def verify_cosine_identity(m: TriangleMetrics) -> tuple[float, float, float]:
    """Residuals of a^2 - b^2 - c^2 + 2bc*cos(alpha) and its two cyclic
    forms, at A, B and C; max side^2 is their scale."""
    a, b, c, (a2, b2, c2) = m.a, m.b, m.c, m.side_squares
    return (a2 - b2 - c2 + 2.0 * b * c * math.cos(m.alpha),
            b2 - a2 - c2 + 2.0 * a * c * math.cos(m.beta),
            c2 - a2 - b2 + 2.0 * a * b * math.cos(m.gamma))
