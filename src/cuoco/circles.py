"""Incircle tangent lengths and circumcenter angle splits.

Both circles realize solutions of the three-sum system: the tangent
points cut the sides into lengths s-a, s-b, s-c, and the segments from
the circumcenter to the vertices cut the angles into pi/2 minus the
opposite angles. Everything here is measured from constructed geometry;
the closed forms live in the readings of `cuoco.three_sum`.
"""

from __future__ import annotations

import math

from .geometry import NonFiniteCoordinate, Point, Triangle, _point, _Record

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
    float range. Both coordinates are floats."""
    if not (math.isfinite(x) and math.isfinite(y)):
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
    a, b, c = m.a, m.b, m.c
    A, B, C = t.A, t.B, t.C
    ax, ay, bx, by, cx, cy = A.x, A.y, B.x, B.y, C.x, C.y
    weight = a + b + c
    ox = (a * ax + b * bx + c * cx) / weight
    oy = (a * ay + b * by + c * cy) / weight
    center = _centre(ox, oy, "incentre")
    # Each side runs from its first endpoint p along the leg e at p; the
    # tangent point is p + t * e, with t = dot(center - p, e) / |e|^2.
    (bc, _), (ca, _), (ab, _) = t._legs["B"], t._legs["C"], t._legs["A"]
    bcx, bcy, cax, cay, abx, aby = bc.x, bc.y, ca.x, ca.y, ab.x, ab.y
    a2, b2, c2 = t._side_squares
    t_a = ((ox - bx) * bcx + (oy - by) * bcy) / a2
    t_b = ((ox - cx) * cax + (oy - cy) * cay) / b2
    t_c = ((ox - ax) * abx + (oy - ay) * aby) / c2
    pax, pay = bx + t_a * bcx, by + t_a * bcy
    pbx, pby = cx + t_b * cax, cy + t_b * cay
    pcx, pcy = ax + t_c * abx, ay + t_c * aby
    # Each vertex to the tangent point on the side toward the next vertex.
    dax, day, dbx, dby, dcx, dcy = pcx - ax, pcy - ay, pax - bx, pay - by, pbx - cx, pby - cy
    return IncircleData(
        t, center, m.area / m.s,
        {"a": _point(pax, pay), "b": _point(pbx, pby), "c": _point(pcx, pcy)},
        {"a": t_a, "b": t_b, "c": t_c},
        {"A": math.sqrt(dax * dax + day * day), "B": math.sqrt(dbx * dbx + dby * dby),
         "C": math.sqrt(dcx * dcx + dcy * dcy)},
    )


def _circumcenter(t: Triangle) -> tuple[Point, float, float]:
    """The circumcentre and its offset (x, y) from A, found in A's frame:
    the legs are scaled by a power of two (exact) so that their largest
    component is about 1, where no product overflows or underflows, and the
    offset is scaled back (exact too). The determinant is then the
    triangle's own cross product."""
    ab, ac = t._legs["A"]
    _, k = math.frexp(max(abs(ab.x), abs(ab.y), abs(ac.x), abs(ac.y)))
    down = math.ldexp(1.0, -k)
    bx, by, cx, cy = ab.x * down, ab.y * down, ac.x * down, ac.y * down
    d = 2.0 * (bx * cy - by * cx)
    if d == 0:  # an underflow, which only a centre beyond the float range allows
        raise NonFiniteCoordinate("coordinates overflow: the circumcentre is not finite")
    b2, c2 = bx * bx + by * by, cx * cx + cy * cy
    up = math.ldexp(1.0, k)
    ox, oy = (cy * b2 - by * c2) / d * up, (bx * c2 - cx * b2) / d * up
    return _centre(t.A.x + ox, t.A.y + oy, "circumcentre"), ox, oy


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
    center, ox, oy = _circumcenter(t)
    legs = t._legs
    (ab, ac), (bc, ba), (ca, cb) = legs["A"], legs["B"], legs["C"]
    abx, aby, acx, acy = ab.x, ab.y, ac.x, ac.y
    bcx, bcy, bax, bay = bc.x, bc.y, ba.x, ba.y
    cax, cay, cbx, cby = ca.x, ca.y, cb.x, cb.y
    # v -> centre for v = B, C; A's is the offset itself.
    obx, oby, ocx, ocy = ox - abx, oy - aby, ox - acx, oy - acy
    # The signed angle from u to w is atan2(cross(u, w), dot(u, w)): at v,
    # from the leg toward the cyclically next vertex to the centre, and
    # from the centre to the leg toward the previous one.
    atan2 = math.atan2
    splits = {
        "A": {"B": atan2(abx * oy - aby * ox, abx * ox + aby * oy),
              "C": atan2(ox * acy - oy * acx, ox * acx + oy * acy)},
        "B": {"C": atan2(bcx * oby - bcy * obx, bcx * obx + bcy * oby),
              "A": atan2(obx * bay - oby * bax, obx * bax + oby * bay)},
        "C": {"A": atan2(cax * ocy - cay * ocx, cax * ocx + cay * ocy),
              "B": atan2(ocx * cby - ocy * cbx, ocx * cbx + ocy * cby)},
    }
    dx, dy = center.x - t.A.x, center.y - t.A.y
    return CircumcircleData(t, center, math.sqrt(dx * dx + dy * dy), splits)
