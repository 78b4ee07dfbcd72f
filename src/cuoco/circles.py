"""Incircle tangent lengths and circumcenter angle splits.

Both circles realize solutions of the three-sum system: the tangent
points cut the sides into lengths s-a, s-b, s-c, and the segments from
the circumcenter to the vertices cut the angles into pi/2 minus the
opposite angles. Everything here is measured from constructed geometry;
the closed forms live in the readings of `cuoco.three_sum`.
"""

from __future__ import annotations

import math

from .geometry import NonFiniteCoordinate, Triangle, frame_getter, _point, _View

# Side id -> its endpoints in cyclic order.
SIDE_ENDPOINTS = {"a": ("B", "C"), "b": ("C", "A"), "c": ("A", "B")}


def _field(names: str, shape=lambda value: value):
    """A view's field: shape applied to the frame values named (one name's
    value, or their tuple), read from its triangle on each access."""
    get = frame_getter(names)
    return property(lambda view: shape(get(view.triangle.frame)))


class IncircleData(_View):
    """The incircle of `triangle`, a view of its frame built by `incircle`.
    Each read of a Point or dict field builds a fresh one."""

    __slots__ = ("triangle",)
    _fields = ("triangle", "center", "radius", "tangent_points", "tangent_params",
               "tangent_lengths")
    center, radius = _field("I_x I_y", lambda xy: _point(*xy)), _field("inradius")
    # keyed by side id; the params affine along SIDE_ENDPOINTS
    tangent_points = _field("touch_a_x touch_a_y touch_b_x touch_b_y touch_c_x touch_c_y",
                            lambda xy: dict(zip("abc", map(_point, xy[::2], xy[1::2]))))
    tangent_params = _field("tan_a tan_b tan_c", lambda values: dict(zip("abc", values)))
    # keyed by vertex, measured geometrically
    tangent_lengths = _field("length_A length_B length_C", lambda values: dict(zip("ABC", values)))


class CircumcircleData(_View):
    """The circumcircle of `triangle`, a view of its frame built by
    `circumcircle`. Each read of a Point or dict field builds a fresh one."""

    __slots__ = ("triangle",)
    _fields = ("triangle", "center", "radius", "splits")
    center, radius = _field("O_x O_y", lambda xy: _point(*xy)), _field("circumradius")
    # splits[v][w]: signed split at v toward side vw
    splits = _field("A_B A_C B_C B_A C_A C_B", lambda s: {
        "A": {"B": s[0], "C": s[1]}, "B": {"C": s[2], "A": s[3]}, "C": {"A": s[4], "B": s[5]}})


_INCENTRE, _CIRCUMCENTRE = frame_getter("I_x I_y"), frame_getter("O_x O_y circumradius")


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
    _check_centre(*_INCENTRE(t.frame), "incentre")
    return IncircleData._view(t)


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
    x, y, radius = _CIRCUMCENTRE(t.frame)
    _check_centre(x, y, "circumcentre", radius)
    return CircumcircleData._view(t)
