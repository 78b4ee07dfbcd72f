"""Planar primitives: points, triangles, and the measurements built on them.

Coordinates keep the numeric type they arrive with. Integer input stays
integer all the way through the dot-product identities, so those can be
checked exactly; nothing in this module coerces to float except the
square roots and arctangents that genuinely need it.
"""

from __future__ import annotations

import math
from operator import attrgetter

VERTICES = ("A", "B", "C")

# Vertex -> endpoints of the opposite side, in cyclic order. Foot
# parameters along a side are measured from the first endpoint.
OPPOSITE_SIDE = {"A": ("B", "C"), "B": ("C", "A"), "C": ("A", "B")}

# A side cosine within this distance of zero reads as a right angle.
RIGHT_ANGLE_BAND = 1e-9

# A check passes when |residual| / scale <= TOLERANCE, unless the caller
# gives its own tolerance (`--tol`, a reading's `tol`).
TOLERANCE = 1e-9


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
    """Repr and equality over the fields named in `_fields`, which is also
    the order of the constructor's arguments; per-call reports use it as is."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls._fields:  # every record has two fields or more, so this returns a tuple
            cls._values = attrgetter(*cls._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)


class _Frozen(_Record):
    """An immutable _Record, hashed by its fields. Each subclass declares
    `__slots__`, its fields followed by any values stored beside them, and
    has no instance `__dict__`. Assignment raises, so constructors set the
    slots through their descriptors (`_store`) or `object.__setattr__`;
    copy and pickle rebuild a value through its constructor."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _store(self, *values) -> None:
        """Set the leading slots, in `__slots__` order, to values."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        return (type(self), self._values(self))


class Point(_Frozen):
    """A point or vector. `Point(x, y)` checks that both are finite.

    The per-triangle constructions (the triangle's legs and feet, the
    circles, the panel corners) compute in local floats read once from the
    stored points, and make a Point only for a value they store. Their
    results match the point-arithmetic forms (`-`, `dot`, `cross`, `norm`)
    bit for bit: the same operations, associated alike.

    Computed points, like the results of arithmetic on points, are built by
    `_point` without the finiteness check: their inputs were checked
    already, and the one way they can stop being finite, overflow, is
    caught once per triangle by `Triangle` (and by the circle centres,
    which mix in absolute coordinates).
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


class Triangle(_Frozen):
    """Three non-collinear vertices, stored counterclockwise.

    Clockwise input is re-labeled (B and C swapped) rather than rejected,
    so side names keep their meaning: a = |BC|, b = |CA|, c = |AB|, with
    alpha, beta, gamma the angles at A, B, C.

    Construction is where finiteness is checked: twice the area and the
    squared sides must be finite, so that no coordinate difference, dot or
    cross product computed from the triangle later can overflow. The
    squared sides must also be nonzero, since the feet and the cosines
    divide by them. The legs' dots, the metrics and the feet are computed
    here too: every reader needs them, and a Triangle never changes.
    """

    # Only the vertices are fields; the values stored beside them stay out
    # of repr, equality and hash.
    _fields = ("A", "B", "C")
    # twice_area is positive; _side_squares is (a^2, b^2, c^2), each the dot
    # of a side vector with itself.
    __slots__ = _fields + ("twice_area", "_side_squares", "_legs", "_dots", "_feet", "metrics")

    def __init__(self, A: Point, B: Point, C: Point) -> None:
        ax, ay, bx, by, cx, cy = A.x, A.y, B.x, B.y, C.x, C.y
        abx, aby, acx, acy = bx - ax, by - ay, cx - ax, cy - ay
        doubled = abx * acy - aby * acx  # cross(B - A, C - A)
        if doubled < 0:
            B, C = C, B
            bx, by, cx, cy = cx, cy, bx, by
            abx, aby, acx, acy = acx, acy, abx, aby
            doubled = -doubled  # exact: the cross product of the swapped sides
        bcx, bcy, cax, cay = cx - bx, cy - by, ax - cx, ay - cy
        bax, bay, cbx, cby = ax - bx, ay - by, bx - cx, by - cy
        squares = (bcx * bcx + bcy * bcy, cax * cax + cay * cay, abx * abx + aby * aby)
        # All four are nonnegative, so a finite sum means each is finite;
        # only a sum that overflows needs each tested.
        if (not _is_finite(doubled + squares[0] + squares[1] + squares[2])
                and not all(map(_is_finite, (doubled, *squares)))):
            raise NonFiniteCoordinate(
                f"coordinates overflow: twice the area or a squared side of "
                f"{A}, {B}, {C} is not finite"
            )
        if doubled == 0:
            raise CollinearPoints(f"vertices are collinear: {A}, {B}, {C}")
        if not all(squares):
            raise GeometryError(f"a squared side of {A}, {B}, {C} underflows to zero")
        # Vertex V -> (P - V, Q - V), the two sides leaving V, with
        # (P, Q) = OPPOSITE_SIDE[V]. Every check reads its side vectors here.
        legs = {"A": (_point(abx, aby), _point(acx, acy)),
                "B": (_point(bcx, bcy), _point(bax, bay)),
                "C": (_point(cax, cay), _point(cbx, cby))}
        # Vertex V -> the dot of its two legs: half the Euclid defect at V,
        # and the pair area S (at A), T (at B) or R (at C).
        dot_a, dot_b, dot_c = abx * acx + aby * acy, bcx * bax + bcy * bay, cax * cbx + cay * cby
        # Vertex V -> foot_of_altitude(self, V): the side opposite V runs
        # from P along the leg (Q - P), and the foot's parameter is the dot
        # at P over that side's square.
        t_a, t_b, t_c = dot_b / squares[0], dot_c / squares[1], dot_a / squares[2]
        feet = {"A": (_point(bx + t_a * bcx, by + t_a * bcy), t_a),
                "B": (_point(cx + t_b * cax, cy + t_b * cay), t_b),
                "C": (_point(ax + t_c * abx, ay + t_c * aby), t_c)}
        self._store(A, B, C, doubled, squares, legs, {"A": dot_a, "B": dot_b, "C": dot_c}, feet)
        object.__setattr__(self, "metrics", metrics(self))


def _is_finite(value) -> bool:
    """math.isfinite, and False for an integer too large for a float:
    lengths and angles are computed in floats."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _worst(values) -> float:
    """The largest of nonnegative values, or NaN if any is NaN (max() can drop it)."""
    worst = 0.0
    for value in values:
        if value > worst or value != value:
            worst = value
    return worst


def _check_vertex(name: str) -> None:
    if name not in VERTICES:
        raise GeometryError(f"unknown vertex {name!r}, expected one of {VERTICES}")


class TriangleMetrics(_Frozen):
    _fields = ("a", "b", "c", "alpha", "beta", "gamma", "s", "area", "cosines")
    # Stored beside the fields, each computed here once per triangle:
    # side_squares is (a * a, b * b, c * c), the squared lengths the checks
    # compare areas with; area_scale and length_scale floor the residual
    # scales of areas and of lengths at 1; classification is classify(self).
    __slots__ = _fields + ("side_squares", "area_scale", "length_scale", "classification")

    def __init__(self, a: float, b: float, c: float, alpha: float, beta: float, gamma: float,
                 s: float, area: float, cosines: tuple[float, float, float]) -> None:
        # cosines: the side cosines at A, B, C
        squares = (a * a, b * b, c * c)
        self._store(a, b, c, alpha, beta, gamma, s, area, cosines,
                    squares, max(1.0, *squares), max(1.0, a, b, c))
        object.__setattr__(self, "classification", classify(self))


def metrics(t: Triangle) -> TriangleMetrics:
    """Side lengths, angles (radians), semiperimeter, area, side cosines.

    Each angle is atan2(2 * area, dot) of the two side vectors leaving its
    vertex; the dots are the pair areas S, T, R. The arccosine of a side
    cosine near +-1 loses every digit of a small angle on a needle-like
    triangle (W. Kahan, "Miscalculating Area and Angles of a Needle-like
    Triangle", 2014); this form keeps them.
    """
    a, b, c = map(math.sqrt, t._side_squares)
    twice_area = t.twice_area
    dots = t._dots
    a2, b2, c2 = a * a, b * b, c * c  # the side_squares TriangleMetrics stores
    return TriangleMetrics(
        a, b, c,
        math.atan2(twice_area, dots["A"]), math.atan2(twice_area, dots["B"]),
        math.atan2(twice_area, dots["C"]),
        (a + b + c) / 2.0, twice_area / 2.0,
        # The cosine at each vertex: (adjacent^2 + adjacent^2 - opposite^2)
        # over twice the adjacent sides' product.
        ((b2 + c2 - a2) / (2.0 * b * c), (a2 + c2 - b2) / (2.0 * a * c),
         (a2 + b2 - c2) / (2.0 * a * b)),
    )


class Classification(_Frozen):
    __slots__ = _fields = ("kind", "vertex")

    def __init__(self, kind: str, vertex: str | None = None) -> None:
        # kind: "acute" | "right" | "obtuse"; vertex: set for right and obtuse
        self._store(kind, vertex)

    @property
    def is_acute(self) -> bool:
        return self.kind == "acute"


def classify(m: TriangleMetrics) -> Classification:
    """Acute/right/obtuse by the smallest side cosine.

    The band is on the cosine, not the angle: |cos| <= RIGHT_ANGLE_BAND
    reads as right.
    """
    # min() over the vertices, the first of equal cosines
    cos_a, cos_b, cos_c = m.cosines
    vertex, smallest = "A", cos_a
    if cos_b < smallest:
        vertex, smallest = "B", cos_b
    if cos_c < smallest:
        vertex, smallest = "C", cos_c
    if smallest < -RIGHT_ANGLE_BAND:
        return Classification("obtuse", vertex)
    if smallest <= RIGHT_ANGLE_BAND:
        return Classification("right", vertex)
    return Classification("acute")


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
    return t._feet[from_vertex]
