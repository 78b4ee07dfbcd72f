"""Planar primitives: points, triangles, and the measurements built on them.

Every per-triangle value (legs, squared sides, dots, feet, metrics, the
Euclid defects and every construction) is computed in one place, `_frame`,
from the six vertex coordinates, into one flat tuple laid out as `LAYOUT`
declares, and read by name. `Triangle` stores its frame, which the builders
are views of; `fuzz` and the check catalogue read frames without a Triangle.

Coordinates keep the numeric type they arrive with. Integer input stays
integer all the way through the dot-product identities, so those can be
checked exactly; nothing in this module coerces to float except the
square roots and arctangents that genuinely need it.
"""

from __future__ import annotations

import math
from operator import attrgetter, itemgetter

VERTICES = ("A", "B", "C")

# Vertex -> endpoints of the opposite side, in cyclic order. Foot
# parameters along a side are measured from the first endpoint.
OPPOSITE_SIDE = {"A": ("B", "C"), "B": ("C", "A"), "C": ("A", "B")}

# A side cosine within this distance of zero reads as a right angle.
RIGHT_ANGLE_BAND = 1e-9

# A check passes when |residual| / scale <= TOLERANCE, unless the caller
# gives its own tolerance (`--tol`, a reading's `tol`).
TOLERANCE = 1e-9

# The frame's layout: each group, in frame order, and the names of its values.
# A vertex's or side's value ends in its name (A or a), a point's in _x and _y.
# The legs at V run to P and Q, (P, Q) = OPPOSITE_SIDE[V]; DOTS, the legs' dots
# at A, B, C, are the pair areas S, T, R; side e's square moves its ends p, q
# and its foot out; a split at V is toward the vertex named; deviation_k is
# step_k - step_0, and step_0 is a^2.
LAYOUT = {
    "SIDES": "a b c", "ANGLES": "alpha beta gamma", "SEMIPERIMETER": "s", "AREA": "area",
    "COSINES": "cos_A cos_B cos_C", "SIDE_SQUARES": "a2 b2 c2", "AREA_SCALE": "area_scale",
    "LENGTH_SCALE": "length_scale", "CLASSIFICATION": "classification",
    "COORDS": "A_x A_y B_x B_y C_x C_y",
    "LEGS": "AB_x AB_y AC_x AC_y BC_x BC_y BA_x BA_y CA_x CA_y CB_x CB_y",
    "TWICE_AREA": "twice_area", "SQUARES": "sq_a sq_b sq_c", "DOTS": "S T R",
    "FOOT_PARAMS": "t_A t_B t_C", "FEET": "foot_A_x foot_A_y foot_B_x foot_B_y foot_C_x foot_C_y",
    "DEFECTS": "defect_A residual_A defect_B residual_B defect_C residual_C",
    "CORNERS": " ".join(f"p_out_{e}_x p_out_{e}_y q_out_{e}_x q_out_{e}_y foot_out_{e}_x "
                        f"foot_out_{e}_y" for e in "abc"),
    "QUAD_AREAS": "R1 R2 S1 S2 T1 T2",
    "SIMILARITY": " ".join(f"ch_{v} ck_{v} similar_{v} scale_{v}" for v in VERTICES),
    "INCIRCLE": "I_x I_y inradius tan_a tan_b tan_c touch_a_x touch_a_y touch_b_x touch_b_y "
                "touch_c_x touch_c_y length_A length_B length_C",
    "CIRCUMCIRCLE": "O_x O_y AO_x AO_y circumradius A_B A_C B_C B_A C_A C_B",
    "CHAIN": "step_0 step_1 step_2 step_3 step_4",
    "CHAIN_DEVIATIONS": "deviation_1 deviation_2 deviation_3 deviation_4",
}
FIELDS = tuple(name for names in LAYOUT.values() for name in names.split())
_INDEX = {name: index for index, name in enumerate(FIELDS)}


def frame_getter(names: str):
    """An itemgetter of the frame values named, space-separated, in that order:
    the value for one name, a tuple for more. An unknown name raises KeyError
    here, where the getter is made, rather than at the first frame read."""
    return itemgetter(*(_INDEX[name] for name in names.split()))


# Each group's constant: the index of its one value, or the slice of its values.
(SIDES, ANGLES, SEMIPERIMETER, AREA, COSINES, SIDE_SQUARES, AREA_SCALE, LENGTH_SCALE,
 CLASSIFICATION, COORDS, LEGS, TWICE_AREA, SQUARES, DOTS, FOOT_PARAMS, FEET, DEFECTS, CORNERS,
 QUAD_AREAS, SIMILARITY, INCIRCLE, CIRCUMCIRCLE, CHAIN, CHAIN_DEVIATIONS) = (
    _INDEX[first] if first == last else slice(_INDEX[first], _INDEX[last] + 1)
    for first, last in ((names.split()[0], names.split()[-1]) for names in LAYOUT.values()))
_FOOT = {v: frame_getter(f"foot_{v}_x foot_{v}_y t_{v}") for v in VERTICES}


class GeometryError(ValueError):
    """Invalid geometric input."""


class NonFiniteCoordinate(GeometryError):
    pass


class CollinearPoints(GeometryError):
    pass


class NonPositiveSide(GeometryError):
    pass


class TriangleInequalityViolated(GeometryError):
    pass


class _Record:
    """An immutable record: repr, equality and hash over the fields named in
    `_fields`. Each subclass declares `__slots__`, its fields followed by any
    values stored beside them, and has no instance `__dict__`. Its field
    constructor takes the fields positionally or by name; a class that
    validates its input or gives a default has its own, which sets the slots
    through their descriptors (`_store`). Assignment raises. Copy and pickle
    rebuild a record through its constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls._fields:  # every record has two fields or more, so this returns a tuple
            cls._values = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values, **named) -> None:
        if named:
            values += tuple(named.pop(name) for name in self._fields[len(values):] if name in named)
        if named or len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__}() takes each of its fields "
                            f"({', '.join(self._fields)}) once, positionally or by name")
        self._store(*values)

    def _store(self, *values) -> None:
        """Set the leading slots, in `__slots__` order, to values."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        return (type(self), self._values(self))


class _View(_Record):
    """A record that holds one value, its one slot, and reads its fields
    from it as properties. It has no field constructor: `_view` builds it,
    and copy and pickle rebuild it from the value it holds."""

    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        raise TypeError(f"{type(self).__qualname__} is a view and has no field constructor")

    @classmethod
    def _view(cls, value):
        view = object.__new__(cls)
        view._store(value)
        return view

    def __reduce__(self):
        return (self._view, (getattr(self, self.__slots__[0]),))


class Point(_Record):
    """A point or vector. `Point(x, y)` checks that both are finite.

    The per-triangle constructions (the legs and feet, the circles, the
    panel corners) compute in local floats read from the triangle's frame,
    and make a Point only for a value they return. Their results match the
    point-arithmetic forms (`-`, `dot`, `cross`, `norm`) bit for bit: the
    same operations, associated alike.

    Computed points, like the results of arithmetic on points, are built by
    `_point` without the finiteness check: their inputs were checked
    already, and the one way they can stop being finite, overflow, is
    caught once per triangle by `_frame` (and by the circle checks, which
    mix in absolute coordinates or square the circumcentre's offset).
    """

    __slots__ = _fields = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self._store(x, y)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (_is_finite(self.x) and _is_finite(self.y)):
            raise NonFiniteCoordinate(
                f"coordinates must be finite, got ({self.x!r}, {self.y!r})"
            )

    def __add__(self, other: "Point") -> "Point":
        return _point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return _point(self.x - other.x, self.y - other.y)


_set_x, _set_y = Point.x.__set__, Point.y.__set__


def _point(x, y) -> Point:
    """A Point from computed coordinates, without the finiteness check."""
    p = object.__new__(Point)
    _set_x(p, x)
    _set_y(p, y)
    return p


def dot(u: Point, v: Point):
    return u.x * v.x + u.y * v.y


def cross(u: Point, v: Point):
    return u.x * v.y - u.y * v.x


def perp(u: Point) -> Point:
    """u rotated a quarter turn counterclockwise."""
    return _point(-u.y, u.x)


def norm(u: Point) -> float:
    return math.sqrt(dot(u, u))


def distance(p: Point, q: Point) -> float:
    return norm(p - q)


class Triangle(_Record):
    """Three non-collinear vertices, stored counterclockwise.

    Clockwise input is re-labeled (B and C swapped) rather than rejected,
    so side names keep their meaning: a = |BC|, b = |CA|, c = |AB|, with
    alpha, beta, gamma the angles at A, B, C.

    Construction computes the frame once (`_frame`, which raises on bad
    input) and stores it beside the vertices, with twice the area and the
    metrics, a view of the frame.
    """

    # Only the vertices are fields; the values stored beside them stay out
    # of repr, equality and hash.
    _fields = ("A", "B", "C")
    __slots__ = _fields + ("twice_area", "frame", "metrics")

    def __init__(self, A: Point, B: Point, C: Point) -> None:
        self._keep(_frame(A.x, A.y, B.x, B.y, C.x, C.y))

    @classmethod
    def _from_frame(cls, f: tuple) -> "Triangle":
        """The Triangle whose frame is f, without computing it again."""
        t = object.__new__(cls)
        t._keep(f)
        return t

    def _keep(self, f: tuple) -> None:
        ax, ay, bx, by, cx, cy = f[COORDS]
        self._store(_point(ax, ay), _point(bx, by), _point(cx, cy), f[TWICE_AREA], f,
                    TriangleMetrics._view(f))


def _frame(ax, ay, bx, by, cx, cy) -> tuple:
    """The frame of the triangle with these vertices, clockwise ones re-labeled:
    every value of the triangle and its constructions, in LAYOUT's order.

    Twice the area and the squared sides must be finite, so that nothing
    computed from them later can overflow, and the sides nonzero as floats,
    since the feet and the cosines divide by them. The constructions are
    not tested: the quads and the incentre sit in absolute coordinates and
    can overflow where the triangle does not, and a circumcentre whose
    determinant underflows is infinite. Each reader tests what it uses.

    Each angle is atan2(2 * area, dot) of the two legs leaving its vertex;
    the arccosine of a side cosine near +-1 loses every digit of a small
    angle on a needle-like triangle (W. Kahan, "Miscalculating Area and
    Angles of a Needle-like Triangle", 2014).
    """
    abx, aby, acx, acy = bx - ax, by - ay, cx - ax, cy - ay
    doubled = abx * acy - aby * acx  # cross(B - A, C - A)
    if doubled < 0:
        bx, by, cx, cy = cx, cy, bx, by
        abx, aby, acx, acy = acx, acy, abx, aby
        doubled = -doubled  # exact: the cross product of the swapped sides
    bcx, bcy, cax, cay = cx - bx, cy - by, ax - cx, ay - cy
    bax, bay, cbx, cby = ax - bx, ay - by, bx - cx, by - cy
    # |BC|^2, |CA|^2, |AB|^2, each the dot of a leg with itself
    sq_a, sq_b, sq_c = bcx * bcx + bcy * bcy, cax * cax + cay * cay, abx * abx + aby * aby
    # All four are nonnegative, so a finite sum means each is finite;
    # only a sum that overflows needs each tested.
    if (not _is_finite(doubled + sq_a + sq_b + sq_c)
            and not all(map(_is_finite, (doubled, sq_a, sq_b, sq_c)))):
        raise NonFiniteCoordinate(
            f"coordinates overflow: twice the area or a squared side of "
            f"{_named(ax, ay, bx, by, cx, cy)} is not finite"
        )
    if doubled == 0:
        raise CollinearPoints(f"vertices are collinear: {_named(ax, ay, bx, by, cx, cy)}")
    a, b, c = math.sqrt(sq_a), math.sqrt(sq_b), math.sqrt(sq_c)
    if not (a and b and c):  # a squared side is 0, or exact and below the float range
        what = "side length" if sq_a and sq_b and sq_c else "squared side"
        raise GeometryError(f"a {what} of {_named(ax, ay, bx, by, cx, cy)} underflows to zero")
    # The dot of the two legs at V: half the Euclid defect at V, and the
    # pair area S (at A), T (at B) or R (at C).
    dot_a, dot_b, dot_c = abx * acx + aby * acy, bcx * bax + bcy * bay, cax * cbx + cay * cby
    at_a, at_b, at_c = 2 * dot_a, 2 * dot_b, 2 * dot_c
    # The side opposite V runs from P along the leg (Q - P), and the foot's
    # parameter is the dot at P over that side's square.
    t_a, t_b, t_c = dot_b / sq_a, dot_c / sq_b, dot_a / sq_c
    fax, fay, fbx, fby = bx + t_a * bcx, by + t_a * bcy, cx + t_b * cax, cy + t_b * cay
    fcx, fcy = ax + t_c * abx, ay + t_c * aby
    # The metrics' side squares: the roots squared again (a * a, not the exact sq_a).
    a2, b2, c2 = a * a, b * b, c * c
    # The cosine at each vertex: (adjacent^2 + adjacent^2 - opposite^2)
    # over twice the adjacent sides' product.
    cos_a, cos_b, cos_c = ((b2 + c2 - a2) / (2.0 * b * c), (a2 + c2 - b2) / (2.0 * a * c),
                           (a2 + b2 - c2) / (2.0 * a * b))
    # Classified by the first smallest cosine; |cos| <= RIGHT_ANGLE_BAND reads as right.
    vertex, smallest = "A", cos_a
    if cos_b < smallest:
        vertex, smallest = "B", cos_b
    if cos_c < smallest:
        vertex, smallest = "C", cos_c
    classification = (_OBTUSE[vertex] if smallest < -RIGHT_ANGLE_BAND
                      else _RIGHT[vertex] if smallest <= RIGHT_ANGLE_BAND else _ACUTE)
    s, area = (a + b + c) / 2.0, doubled / 2.0
    # Side (p, q) with foot f moves out by perp(p - q), which points away from
    # a counterclockwise triangle and has the side's length: (q, p, p_out,
    # q_out) is its exterior square, split into the panels (foot, p, p_out,
    # foot_out) and (q, foot, foot_out, q_out). p - q is the leg at q toward p.
    nx, ny = -cby, cbx
    apx, apy, aqx, aqy, afx, afy = bx + nx, by + ny, cx + nx, cy + ny, fax + nx, fay + ny
    nx, ny = -acy, acx
    bpx, bpy, bqx, bqy, bfx, bfy = cx + nx, cy + ny, ax + nx, ay + ny, fbx + nx, fby + ny
    nx, ny = -bay, bax
    cpx, cpy, cqx, cqy, cfx, cfy = ax + nx, ay + ny, bx + nx, by + ny, fcx + nx, fcy + ny
    # Each quad's shoelace area, terms summed alike (bit for bit) and halved by an int (a
    # Fraction sum stays exact); NaN where an exact int product passes the float range.
    try:
        t2 = (0 + (fax * by - fay * bx) + (bx * apy - by * apx) + (apx * afy - apy * afx)
              + (afx * fay - afy * fax)) / 2
        r1 = (0 + (cx * fay - cy * fax) + (fax * afy - fay * afx) + (afx * aqy - afy * aqx)
              + (aqx * cy - aqy * cx)) / 2
        r2 = (0 + (fbx * cy - fby * cx) + (cx * bpy - cy * bpx) + (bpx * bfy - bpy * bfx)
              + (bfx * fby - bfy * fbx)) / 2
        s1 = (0 + (ax * fby - ay * fbx) + (fbx * bfy - fby * bfx) + (bfx * bqy - bfy * bqx)
              + (bqx * ay - bqy * ax)) / 2
        s2 = (0 + (fcx * ay - fcy * ax) + (ax * cpy - ay * cpx) + (cpx * cfy - cpy * cfx)
              + (cfx * fcy - cfy * fcx)) / 2
        t1 = (0 + (bx * fcy - by * fcx) + (fcx * cfy - fcy * cfx) + (cfx * cqy - cfy * cqx)
              + (cqx * by - cqy * bx)) / 2
    except OverflowError:
        t2 = r1 = r2 = s1 = s2 = t1 = math.nan
    # At V with (P, Q) = OPPOSITE_SIDE[V]: ch = dot(foot from P - V, Q - V) / |VQ|,
    # ck = dot(foot from Q - V, P - V) / |VP|, and |VP| ck - |VQ| ch vanishes.
    ch_a = ((fbx - ax) * acx + (fby - ay) * acy) / b
    ck_a = ((fcx - ax) * abx + (fcy - ay) * aby) / c
    ch_b = ((fcx - bx) * bax + (fcy - by) * bay) / c
    ck_b = ((fax - bx) * bcx + (fay - by) * bcy) / a
    ch_c = ((fax - cx) * cbx + (fay - cy) * cby) / a
    ck_c = ((fbx - cx) * cax + (fby - cy) * cay) / b
    product_a, product_b, product_c = c * b, a * c, b * a
    # The incentre, the side-weighted vertex average; side e from p has its
    # tangent point at p + t e, t = dot(centre - p, e) / |e|^2.
    weight = a + b + c
    ox, oy = (a * ax + b * bx + c * cx) / weight, (a * ay + b * by + c * cy) / weight
    tan_a = ((ox - bx) * bcx + (oy - by) * bcy) / sq_a
    tan_b = ((ox - cx) * cax + (oy - cy) * cay) / sq_b
    tan_c = ((ox - ax) * abx + (oy - ay) * aby) / sq_c
    pax, pay, pbx, pby = bx + tan_a * bcx, by + tan_a * bcy, cx + tan_b * cax, cy + tan_b * cay
    pcx, pcy = ax + tan_c * abx, ay + tan_c * aby
    # Each vertex to the tangent point on the side toward the next vertex.
    dax, day, dbx, dby, dcx, dcy = pcx - ax, pcy - ay, pax - bx, pay - by, pbx - cx, pby - cy
    # The circumcentre's offset from A, in A's frame with the legs scaled by a
    # power of two (exact) to a largest component near 1, where no product
    # overflows or underflows; the determinant is the triangle's own cross
    # product, zero only for a centre beyond the float range.
    _, k = math.frexp(max(abs(abx), abs(aby), abs(acx), abs(acy)))
    down, up = math.ldexp(1.0, -k), math.ldexp(1.0, k)
    ubx, uby, ucx, ucy = abx * down, aby * down, acx * down, acy * down
    d = 2.0 * (ubx * ucy - uby * ucx)
    ub2, uc2 = ubx * ubx + uby * uby, ucx * ucx + ucy * ucy
    if d:
        qx, qy = (ucy * ub2 - uby * uc2) / d * up, (ubx * uc2 - ucx * ub2) / d * up
    else:
        qx = qy = math.inf
    ex, ey = ax + qx, ay + qy
    rx, ry = ex - ax, ey - ay
    # B and C to the centre. The signed angle from u to w is atan2(cross(u, w),
    # dot(u, w)): at v, from the leg toward the next vertex to the centre, and
    # from the centre to the leg toward the previous one.
    qbx, qby, qcx, qcy = qx - abx, qy - aby, qx - acx, qy - acy
    atan2, sqrt = math.atan2, math.sqrt
    # a^2 = R1 + T2 = R2 + T1 = (b^2 - S1) + (c^2 - S2) = b^2 + c^2 - 2 S
    step_1, step_2, step_3, step_4 = r1 + t2, r2 + t1, (b2 - s1) + (c2 - s2), b2 + c2 - 2.0 * dot_a
    return (a, b, c, atan2(doubled, dot_a), atan2(doubled, dot_b), atan2(doubled, dot_c),
            s, area, cos_a, cos_b, cos_c, a2, b2, c2, max(1.0, a2, b2, c2), max(1.0, a, b, c),
            classification,
            ax, ay, bx, by, cx, cy, abx, aby, acx, acy, bcx, bcy, bax, bay, cax, cay, cbx, cby,
            doubled, sq_a, sq_b, sq_c, dot_a, dot_b, dot_c, t_a, t_b, t_c, fax, fay, fbx, fby,
            fcx, fcy, at_a, sq_a - sq_c - sq_b + at_a, at_b, sq_b - sq_a - sq_c + at_b, at_c,
            sq_c - sq_b - sq_a + at_c, apx, apy, aqx, aqy, afx, afy, bpx, bpy, bqx, bqy, bfx, bfy,
            cpx, cpy, cqx, cqy, cfx, cfy, r1, r2, s1, s2, t1, t2,
            ch_a, ck_a, c * ck_a - b * ch_a, product_a if product_a > 1.0 else 1.0,
            ch_b, ck_b, a * ck_b - c * ch_b, product_b if product_b > 1.0 else 1.0,
            ch_c, ck_c, b * ck_c - a * ch_c, product_c if product_c > 1.0 else 1.0,
            ox, oy, area / s, tan_a, tan_b, tan_c, pax, pay, pbx, pby, pcx, pcy,
            sqrt(dax * dax + day * day), sqrt(dbx * dbx + dby * dby), sqrt(dcx * dcx + dcy * dcy),
            ex, ey, qx, qy, sqrt(rx * rx + ry * ry),
            atan2(abx * qy - aby * qx, abx * qx + aby * qy),
            atan2(qx * acy - qy * acx, qx * acx + qy * acy),
            atan2(bcx * qby - bcy * qbx, bcx * qbx + bcy * qby),
            atan2(qbx * bay - qby * bax, qbx * bax + qby * bay),
            atan2(cax * qcy - cay * qcx, cax * qcx + cay * qcy),
            atan2(qcx * cby - qcy * cbx, qcx * cbx + qcy * cby),
            a2, step_1, step_2, step_3, step_4, step_1 - a2, step_2 - a2, step_3 - a2, step_4 - a2)


def _named(ax, ay, bx, by, cx, cy) -> str:
    """Three vertices as the error messages name them, as Points."""
    return f"{_point(ax, ay)}, {_point(bx, by)}, {_point(cx, cy)}"


def _is_finite(value) -> bool:
    """math.isfinite, and False for an integer too large for a float:
    lengths and angles are computed in floats."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _worst(values) -> float:
    """The largest of values floored at 0.0, or NaN if any is NaN (max() can drop it)."""
    worst = 0.0
    for value in values:
        if not value <= worst:  # larger, or NaN
            if value != value:
                return value
            worst = value
    return worst


def _check_vertex(name: str) -> None:
    if name not in VERTICES:
        raise GeometryError(f"unknown vertex {name!r}, expected one of {VERTICES}")


class TriangleMetrics(_View):
    """Side lengths, angles (radians), semiperimeter, area, side cosines, and beside
    them the side squares, the area and length floors (the residual scales) and
    the classification: a view of the frame's values of those names. Copy and
    pickle carry the whole frame."""

    _fields = ("a", "b", "c", "alpha", "beta", "gamma", "s", "area", "cosines")
    __slots__ = ("frame",)
    (a, b, c, alpha, beta, gamma, s, area, cosines, side_squares, area_scale, length_scale,
     classification) = (property(lambda m, get=frame_getter(names): get(m.frame)) for names in (
         "a", "b", "c", "alpha", "beta", "gamma", "s", "area", LAYOUT["COSINES"],
         LAYOUT["SIDE_SQUARES"], "area_scale", "length_scale", "classification"))


class Classification(_Record):
    __slots__ = _fields = ("kind", "vertex")

    def __init__(self, kind: str, vertex: str | None = None) -> None:
        # kind: "acute" | "right" | "obtuse"; vertex: set for right and obtuse
        self._store(kind, vertex)


# The seven classifications, shared by every triangle: a Classification is
# frozen, so no reader can change another's.
_ACUTE = Classification("acute")
_RIGHT = {v: Classification("right", v) for v in VERTICES}
_OBTUSE = {v: Classification("obtuse", v) for v in VERTICES}


def triangle_from_sides(a: float, b: float, c: float) -> Triangle:
    """Canonical placement for side lengths (a, b, c).

    B at the origin, C at (a, 0), A in the upper half-plane, so that
    |BC| = a, |CA| = b, |AB| = c. The result is already counterclockwise.
    """
    _check_sides(a, b, c)
    x = (a * a + c * c - b * b) / (2.0 * a)
    y_sq = c * c - x * x
    if y_sq <= 0.0:
        # Valid by the strict inequality but flat at float precision.
        raise TriangleInequalityViolated(f"sides ({a}, {b}, {c}) are numerically degenerate")
    return Triangle(A=Point(x, math.sqrt(y_sq)), B=Point(0.0, 0.0), C=Point(a, 0.0))


def _check_sides(*sides) -> None:
    """Side lengths must be positive finite numbers (not bools) whose
    squares sum without overflow; three sides must also obey the strict
    triangle inequality."""
    for value in sides:
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not _is_finite(value) or value <= 0):
            raise NonPositiveSide(f"side lengths must be positive finite numbers, got {value!r}")
    if len(sides) == 3:
        a, b, c = sides
        if a + b <= c or a + c <= b or b + c <= a:
            raise TriangleInequalityViolated(f"sides ({a}, {b}, {c}) violate the strict triangle inequality")
    if not _is_finite(sum(value * value for value in sides)):
        raise NonFiniteCoordinate(f"sides ({', '.join(map(str, sides))}) overflow when squared")


def foot_of_altitude(t: Triangle, from_vertex: str) -> tuple[Point, float]:
    """Foot of the altitude from a vertex onto the line of the opposite side.

    Returns (foot, tparam) where tparam is the affine coordinate along the
    opposite side, 0 at its first endpoint and 1 at its second (cyclic
    order, see OPPOSITE_SIDE). tparam outside [0, 1] means the foot lies
    beyond the segment, which happens exactly at an obtuse base angle.
    """
    _check_vertex(from_vertex)
    x, y, tparam = _FOOT[from_vertex](t.frame)
    return _point(x, y), tparam
