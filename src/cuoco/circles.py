"""Incircle tangent lengths and circumcenter angle splits.

Both circles realize solutions of the three-sum system: the tangent
points cut the sides into lengths s-a, s-b, s-c, and the segments from
the circumcenter to the vertices cut the angles into pi/2 minus the
opposite angles. Everything here is measured from constructed geometry;
the closed forms live in the readings of `cuoco.three_sum`.
"""

from __future__ import annotations

import math

from .geometry import (AREA, COORDS, LEGS, SEMIPERIMETER, SIDES, SQUARES, NonFiniteCoordinate,
                       Point, Triangle, _point, _Record)

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


def _check_centre(x, y, name: str) -> None:
    """A circle centre's check: the incentre's formula multiplies absolute
    coordinates, which can overflow where the triangle's own check does not
    reach, and a flat triangle's circumcentre can lie beyond the float range."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NonFiniteCoordinate(f"coordinates overflow: the {name} is not finite")


def _incircle(f: tuple) -> tuple:
    """incircle's values from a frame: centre x, y, radius, the tangent
    params and points (x, y) on sides a, b, c, and the tangent lengths at
    A, B, C."""
    a, b, c = f[SIDES]
    ax, ay, bx, by, cx, cy = f[COORDS]
    weight = a + b + c
    ox = (a * ax + b * bx + c * cx) / weight
    oy = (a * ay + b * by + c * cy) / weight
    _check_centre(ox, oy, "incentre")
    # Each side runs from its first endpoint p along the leg e at p; the
    # tangent point is p + t * e, with t = dot(center - p, e) / |e|^2.
    abx, aby, _, _, bcx, bcy, _, _, cax, cay, _, _ = f[LEGS]
    a2, b2, c2 = f[SQUARES]
    t_a = ((ox - bx) * bcx + (oy - by) * bcy) / a2
    t_b = ((ox - cx) * cax + (oy - cy) * cay) / b2
    t_c = ((ox - ax) * abx + (oy - ay) * aby) / c2
    pax, pay = bx + t_a * bcx, by + t_a * bcy
    pbx, pby = cx + t_b * cax, cy + t_b * cay
    pcx, pcy = ax + t_c * abx, ay + t_c * aby
    # Each vertex to the tangent point on the side toward the next vertex.
    dax, day, dbx, dby, dcx, dcy = pcx - ax, pcy - ay, pax - bx, pay - by, pbx - cx, pby - cy
    return (ox, oy, f[AREA] / f[SEMIPERIMETER], (t_a, t_b, t_c),
            ((pax, pay), (pbx, pby), (pcx, pcy)),
            (math.sqrt(dax * dax + day * day), math.sqrt(dbx * dbx + dby * dby),
             math.sqrt(dcx * dcx + dcy * dcy)))


def incircle(t: Triangle) -> IncircleData:
    """Incenter as the side-length weighted vertex average, with tangency data.

    tangent_points holds the foot of the perpendicular from the center to
    each side and tangent_params its affine coordinate along the side (0 at
    the first endpoint, 1 at the second); tangent_lengths holds, per vertex,
    the measured distance to the tangent point on the side toward the
    cyclically next vertex (the distance along the other adjacent side is
    equal, which callers test).
    """
    ox, oy, radius, (t_a, t_b, t_c), (p_a, p_b, p_c), (at_a, at_b, at_c) = _incircle(t.frame)
    return IncircleData(t, _point(ox, oy), radius,
                        {"a": _point(*p_a), "b": _point(*p_b), "c": _point(*p_c)},
                        {"a": t_a, "b": t_b, "c": t_c}, {"A": at_a, "B": at_b, "C": at_c})


def _circumcenter(f: tuple) -> tuple[float, float, float, float]:
    """The circumcentre (x, y) and its offset (x, y) from A, found from a
    frame in A's own: the legs are scaled by a power of two (exact) so that
    their largest component is about 1, where no product overflows or
    underflows, and the offset is scaled back (exact too). The determinant
    is then the triangle's own cross product."""
    abx, aby, acx, acy = f[LEGS][:4]
    _, k = math.frexp(max(abs(abx), abs(aby), abs(acx), abs(acy)))
    down = math.ldexp(1.0, -k)
    bx, by, cx, cy = abx * down, aby * down, acx * down, acy * down
    d = 2.0 * (bx * cy - by * cx)
    if d == 0:  # an underflow, which only a centre beyond the float range allows
        raise NonFiniteCoordinate("coordinates overflow: the circumcentre is not finite")
    b2, c2 = bx * bx + by * by, cx * cx + cy * cy
    up = math.ldexp(1.0, k)
    ox, oy = (cy * b2 - by * c2) / d * up, (bx * c2 - cx * b2) / d * up
    ax, ay = f[COORDS][:2]
    x, y = ax + ox, ay + oy
    _check_centre(x, y, "circumcentre")
    return x, y, ox, oy


def _circumcircle(f: tuple) -> tuple:
    """circumcircle's values from a frame: centre x, y, radius, and the
    splits as the angles reading's two (x, y, z) triples, near = (at A
    toward B, at A toward C, at B toward C) and far = (at B toward A, at C
    toward A, at C toward B)."""
    x, y, ox, oy = _circumcenter(f)
    abx, aby, acx, acy, bcx, bcy, bax, bay, cax, cay, cbx, cby = f[LEGS]
    # v -> centre for v = B, C; A's is the offset itself.
    obx, oby, ocx, ocy = ox - abx, oy - aby, ox - acx, oy - acy
    # The signed angle from u to w is atan2(cross(u, w), dot(u, w)): at v,
    # from the leg toward the cyclically next vertex to the centre, and
    # from the centre to the leg toward the previous one.
    atan2 = math.atan2
    near = (atan2(abx * oy - aby * ox, abx * ox + aby * oy),
            atan2(ox * acy - oy * acx, ox * acx + oy * acy),
            atan2(bcx * oby - bcy * obx, bcx * obx + bcy * oby))
    far = (atan2(obx * bay - oby * bax, obx * bax + oby * bay),
           atan2(cax * ocy - cay * ocx, cax * ocx + cay * ocy),
           atan2(ocx * cby - ocy * cbx, ocx * cbx + ocy * cby))
    ax, ay = f[COORDS][:2]
    dx, dy = x - ax, y - ay
    return x, y, math.sqrt(dx * dx + dy * dy), near, far


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
    x, y, radius, (a_b, a_c, b_c), (b_a, c_a, c_b) = _circumcircle(t.frame)
    splits = {"A": {"B": a_b, "C": a_c}, "B": {"C": b_c, "A": b_a}, "C": {"A": c_a, "B": c_b}}
    return CircumcircleData(t, _point(x, y), radius, splits)
