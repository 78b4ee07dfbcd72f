"""Incircle tangent lengths and circumcenter angle splits.

Both circles realize solutions of the three-sum system: the tangent
points cut the sides into lengths s-a, s-b, s-c, and the segments from
the circumcenter to the vertices cut the angles into pi/2 minus the
opposite angles. Everything here is measured from constructed geometry;
the closed forms live with the callers that cross-check them.
"""

from __future__ import annotations

import math

from .geometry import (
    OPPOSITE_SIDE,
    NonFiniteCoordinate,
    Point,
    Triangle,
    TriangleMetrics,
    VERTICES,
    cross,
    dot,
    norm,
    _is_finite,
    _point,
    _project,
    _Record,
)

# Side id -> its endpoints in cyclic order.
SIDE_ENDPOINTS = {"a": ("B", "C"), "b": ("C", "A"), "c": ("A", "B")}

# Vertex -> the side reached by walking to the cyclically next vertex.
_NEXT_SIDE = {"A": "c", "B": "a", "C": "b"}


class IncircleData(_Record):
    __slots__ = _fields = ("triangle", "center", "radius", "tangent_points", "tangent_params",
                           "tangent_lengths")

    def __init__(self, triangle: Triangle, center: Point, radius: float,
                 tangent_points: dict[str, Point], tangent_params: dict[str, float],
                 tangent_lengths: dict[str, float]) -> None:
        self.triangle, self.center, self.radius = triangle, center, radius
        self.tangent_points = tangent_points  # keyed by side id
        self.tangent_params = tangent_params  # keyed by side id, affine along SIDE_ENDPOINTS
        self.tangent_lengths = tangent_lengths  # keyed by vertex, measured geometrically


class CircumcircleData(_Record):
    __slots__ = _fields = ("triangle", "center", "radius", "splits")

    def __init__(self, triangle: Triangle, center: Point, radius: float,
                 splits: dict[str, dict[str, float]]) -> None:
        self.triangle, self.center, self.radius = triangle, center, radius
        self.splits = splits  # splits[v][w]: signed split at v toward side vw


def _centre(x, y, name: str) -> Point:
    """A circle centre, checked here: the incentre's formula multiplies
    absolute coordinates, which can overflow where the triangle's own check
    does not reach, and a flat triangle's circumcentre can lie beyond the
    float range."""
    if not (_is_finite(x) and _is_finite(y)):
        raise NonFiniteCoordinate(f"coordinates overflow: the {name} is not finite")
    return _point(x, y)


def incircle(t: Triangle) -> IncircleData:
    """Incenter as the side-length weighted vertex average, with tangency data.

    tangent_points holds the foot of the perpendicular from the center to
    each side and tangent_params its affine coordinate along the side (0 at
    the first endpoint, 1 at the second); tangent_lengths holds, per vertex,
    the measured distance to the tangent point on the side toward the
    cyclically next vertex (the distance along the other adjacent side is
    equal, which callers test).
    """
    m = t.metrics
    weight = m.a + m.b + m.c
    center = _centre(
        (m.a * t.A.x + m.b * t.B.x + m.c * t.C.x) / weight,
        (m.a * t.A.y + m.b * t.B.y + m.c * t.C.y) / weight,
        "incentre",
    )
    radius = m.area / m.s
    tangent_points = {}
    tangent_params = {}
    for side, (first, _) in SIDE_ENDPOINTS.items():
        p = getattr(t, first)
        tangent_points[side], tangent_params[side] = _project(p, t._legs[first][0], center - p)
    tangent_lengths = {
        v: norm(tangent_points[_NEXT_SIDE[v]] - getattr(t, v)) for v in VERTICES
    }
    return IncircleData(
        triangle=t,
        center=center,
        radius=radius,
        tangent_points=tangent_points,
        tangent_params=tangent_params,
        tangent_lengths=tangent_lengths,
    )


def tangent_lengths(t: Triangle) -> dict[str, float]:
    """Closed-form tangent lengths: s - a at A, s - b at B, s - c at C."""
    m = t.metrics
    return {"A": m.s - m.a, "B": m.s - m.b, "C": m.s - m.c}


def _circumcenter(t: Triangle) -> tuple[Point, Point]:
    """The circumcentre and its offset from A, found in A's frame: the legs
    are scaled by a power of two (exact) so that their largest component is
    about 1, where no product overflows or underflows, and the offset is
    scaled back (exact too). The determinant is then the triangle's own
    cross product."""
    ab, ac = t._legs["A"]
    _, k = math.frexp(max(abs(ab.x), abs(ab.y), abs(ac.x), abs(ac.y)))
    down = math.ldexp(1.0, -k)
    bx, by, cx, cy = ab.x * down, ab.y * down, ac.x * down, ac.y * down
    d = 2.0 * (bx * cy - by * cx)
    if d == 0:  # an underflow, which only a centre beyond the float range allows
        raise NonFiniteCoordinate("coordinates overflow: the circumcentre is not finite")
    b2, c2 = bx * bx + by * by, cx * cx + cy * cy
    up = math.ldexp(1.0, k)
    offset = _point((cy * b2 - by * c2) / d * up, (bx * c2 - cx * b2) / d * up)
    return _centre(t.A.x + offset.x, t.A.y + offset.y, "circumcentre"), offset


def _signed_angle(u: Point, v: Point) -> float:
    return math.atan2(cross(u, v), dot(u, v))


def circumcircle(t: Triangle) -> CircumcircleData:
    """Circumcenter by perpendicular-bisector intersection, radius measured
    to A, and the signed angles into which the segments to the centre cut
    each vertex.

    splits[v][w] is the signed angle at v between side vw and the segment
    v -> circumcenter; negative exactly when the center lies on the far
    side of line vw. The two splits at a vertex sum to its angle, and
    splits[v][w] == splits[w][v] (base angles of the isosceles central
    triangle over side vw). The segments come from the centre's offset from
    A and the legs at A, never as centre - v: far from the origin the
    centre's coordinates round to a grid as coarse as the triangle itself.
    """
    center, offset = _circumcenter(t)
    ab, ac = t._legs["A"]
    to_center = {"A": offset, "B": offset - ab, "C": offset - ac}
    splits: dict[str, dict[str, float]] = {}
    for v, (nxt, prv) in OPPOSITE_SIDE.items():  # cyclically next and previous
        to_nxt, to_prv = t._legs[v]
        splits[v] = {
            nxt: _signed_angle(to_nxt, to_center[v]),
            prv: _signed_angle(to_center[v], to_prv),
        }
    return CircumcircleData(
        triangle=t,
        center=center,
        radius=norm(center - t.A),
        splits=splits,
    )


def closed_form_splits(m: TriangleMetrics) -> dict[str, dict[str, float]]:
    """The same structure as `circumcircle(t).splits`, from pi/2 minus the third angle."""
    angle = {"A": m.alpha, "B": m.beta, "C": m.gamma}
    return {
        v: {nxt: math.pi / 2.0 - angle[prv], prv: math.pi / 2.0 - angle[nxt]}
        for v, (nxt, prv) in OPPOSITE_SIDE.items()
    }
