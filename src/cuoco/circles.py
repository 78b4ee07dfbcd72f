"""Incircle tangent lengths and circumcenter angle splits.

Both circles realize solutions of the three-sum system: the tangent
points cut the sides into lengths s-a, s-b, s-c, and the segments from
the circumcenter to the vertices cut the angles into pi/2 minus the
opposite angles. Everything here is measured from constructed geometry;
the closed forms live in the readings of `cuoco.three_sum`.
"""

from __future__ import annotations

import math

from .geometry import CIRCUMCIRCLE, INCIRCLE, NonFiniteCoordinate, Point, Triangle, _point, _Record

# Side id -> its endpoints in cyclic order.
SIDE_ENDPOINTS = {"a": ("B", "C"), "b": ("C", "A"), "c": ("A", "B")}


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


def _check_centre(x, y, name: str, radius=0.0) -> None:
    """A circle's check: the incentre's formula multiplies absolute coordinates, which can
    overflow where the triangle's own check does not reach; a flat triangle's circumcentre can
    lie beyond the float range, and a thin one's radius, the root of a squared offset, overflow."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NonFiniteCoordinate(f"coordinates overflow: the {name} is not finite")
    if not math.isfinite(radius):
        raise NonFiniteCoordinate("coordinates overflow: the circumradius is not finite")


def incircle(t: Triangle) -> IncircleData:
    """Incenter as the side-length weighted vertex average, with tangency data.

    tangent_points holds the foot of the perpendicular from the center to
    each side and tangent_params its affine coordinate along the side (0 at
    the first endpoint, 1 at the second); tangent_lengths holds, per vertex,
    the measured distance to the tangent point on the side toward the
    cyclically next vertex (the distance along the other adjacent side is
    equal, which callers test).
    """
    (ox, oy, radius, t_a, t_b, t_c, pax, pay, pbx, pby, pcx, pcy, at_a, at_b,
     at_c) = t.frame[INCIRCLE]
    _check_centre(ox, oy, "incentre")
    return IncircleData(t, _point(ox, oy), radius,
                        {"a": _point(pax, pay), "b": _point(pbx, pby), "c": _point(pcx, pcy)},
                        {"a": t_a, "b": t_b, "c": t_c}, {"A": at_a, "B": at_b, "C": at_c})


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
    x, y, _, _, radius, a_b, a_c, b_c, b_a, c_a, c_b = t.frame[CIRCUMCIRCLE]
    _check_centre(x, y, "circumcentre", radius)
    splits = {"A": {"B": a_b, "C": a_c}, "B": {"C": b_c, "A": b_a}, "C": {"A": c_a, "B": c_b}}
    return CircumcircleData(t, _point(x, y), radius, splits)
