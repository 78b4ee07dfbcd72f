"""Exterior squares split by extended altitudes into six signed rectangles.

On each side of a counterclockwise triangle sits an exterior square. The
altitude from the opposite vertex, extended across that square, splits it
into two rectangles. Labeled by the vertex they touch, the six panels fall
into three pairs of equal signed area:

    R1, R2 touch C, area a*b*cos(gamma)
    S1, S2 touch A, area b*c*cos(alpha)
    T1, T2 touch B, area a*c*cos(beta)

hosted as square a = {R1, T2}, square b = {R2, S1}, square c = {S2, T1}.
Right angles collapse panels to zero area; an obtuse angle drives its pair
negative, and the host squares are then recovered as set differences: the
positive panel is the full rectangle running past the square, the negative
one the overrun strip.

Each panel's certified signed_area comes from a plain dot product of
coordinate differences, exact for integer coordinates. The quad carries
the constructed geometry, whose shoelace area agrees to rounding; the two
members of a pair are built from different altitude feet, so comparing
quad areas is a real check rather than an algebraic identity.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .geometry import (COORDS, DOTS, FEET, LEGS, SIDE_SQUARES, SIDES, VERTICES,
                       NonFiniteCoordinate, Point, Triangle, TriangleMetrics, cross, _check_vertex,
                       _point, _Record, _worst)

PAIR_CLASSES = ("R", "S", "T")
PANEL_LABELS = ("R1", "R2", "S1", "S2", "T1", "T2")

# Side -> (first endpoint, second endpoint, opposite vertex), cyclic order.
SIDE_FRAMES = {"a": ("B", "C", "A"), "b": ("C", "A", "B"), "c": ("A", "B", "C")}

# Side -> (panel touching the first endpoint, panel touching the second).
HOSTED_PANELS = {"a": ("T2", "R1"), "b": ("R2", "S1"), "c": ("S2", "T1")}

# Pair class -> the vertex whose two legs' dot is its area.
_PAIR_VERTEX = {"R": "C", "S": "A", "T": "B"}


class SquareOnSide(_Record):
    """Exterior square; vertices counterclockwise, first two on the triangle side."""

    __slots__ = _fields = ("side", "vertices")

    def __init__(self, side: str, vertices: tuple[Point, Point, Point, Point]) -> None:
        self.side = side  # "a" | "b" | "c"
        self.vertices = vertices


class RectanglePanel(_Record):
    __slots__ = _fields = ("label", "host", "signed_area", "quad")

    def __init__(self, label: str, host: str, signed_area: float,
                 quad: tuple[Point, Point, Point, Point]) -> None:
        self.label = label  # one of PANEL_LABELS
        self.host = host  # side id of the host square
        self.signed_area = signed_area  # dot-product value, exact for integer coordinates
        self.quad = quad  # constructed corners, degenerate at a right angle

    @property
    def pair(self) -> str:
        return self.label[0]


class PairAreas(_Record):
    __slots__ = _fields = ("R", "S", "T")

    def __init__(self, R: float, S: float, T: float) -> None:
        self.R, self.S, self.T = R, S, T


class CuocoDecomposition(_Record):
    __slots__ = _fields = ("triangle", "metrics", "squares", "panels", "pair_areas")

    def __init__(self, triangle: Triangle, metrics: TriangleMetrics,
                 squares: tuple[SquareOnSide, SquareOnSide, SquareOnSide],
                 panels: tuple[RectanglePanel, ...], pair_areas: PairAreas) -> None:
        self.triangle, self.metrics = triangle, metrics
        self.squares = squares  # sides a, b, c
        self.panels = panels  # in PANEL_LABELS order
        self.pair_areas = pair_areas


def shoelace(points) -> float:
    """Signed area of a polygon given as a sequence of Points."""
    total = 0
    n = len(points)
    for i in range(n):
        total += cross(points[i], points[(i + 1) % n])
    return total / 2.0


def _side_corners(f: tuple) -> list[tuple]:
    """The corners `build` places on each side, in SIDE_FRAMES order, from a frame.

    Each entry is (px, py, qx, qy, fx, fy, pox, poy, qox, qoy, fox, foy):
    the side's endpoints p and q, the foot f of the altitude on its line,
    and each of the three moved across the side by perp(p - q). That offset
    points away from the triangle for a counterclockwise vertex order and
    has the side's length, so (q, p, p_out, q_out) is the exterior square,
    counterclockwise from the side, and the foot splits it into the panels
    (foot, p, p_out, foot_out) and (q, foot, foot_out, q_out).
    """
    ax, ay, bx, by, cx, cy = f[COORDS]
    _, _, acx, acy, _, _, bax, bay, _, _, cbx, cby = f[LEGS]
    fax, fay, fbx, fby, fcx, fcy = f[FEET]
    corners = []
    # p - q is the leg at q toward p: B - C, C - A and A - B.
    for px, py, qx, qy, fx, fy, sx, sy in ((bx, by, cx, cy, fax, fay, cbx, cby),
                                           (cx, cy, ax, ay, fbx, fby, acx, acy),
                                           (ax, ay, bx, by, fcx, fcy, bax, bay)):
        nx, ny = -sy, sx  # perp(p - q)
        corners.append((px, py, qx, qy, fx, fy,
                        px + nx, py + ny, qx + nx, qy + ny, fx + nx, fy + ny))
    return corners


def _quad_areas(f: tuple) -> list[float]:
    """shoelace(panel.quad) for each panel that build makes of a frame's
    triangle, in PANEL_LABELS order: the same corners, and the same terms
    summed alike, so bit for bit."""
    areas = []
    for px, py, qx, qy, fx, fy, pox, poy, qox, qoy, fox, foy in _side_corners(f):
        # (foot, p, p_out, foot_out), then (q, foot, foot_out, q_out)
        areas.append((0 + (fx * py - fy * px) + (px * poy - py * pox)
                      + (pox * foy - poy * fox) + (fox * fy - foy * fx)) / 2.0)
        areas.append((0 + (qx * fy - qy * fx) + (fx * foy - fy * fox)
                      + (fox * qoy - foy * qox) + (qox * qy - qoy * qx)) / 2.0)
    # Made as T2, R1, R2, S1, S2, T1; one place round is PANEL_LABELS order.
    return areas[1:] + areas[:1]


def _finite_quad_areas(f: tuple) -> list[float]:
    """_quad_areas(f), or NonFiniteCoordinate if they overflow: the quads sit
    in absolute coordinates, so their cross products can overflow where the
    triangle's own sizes do not."""
    areas = _quad_areas(f)
    if not math.isfinite(sum(areas)):
        raise NonFiniteCoordinate("coordinates overflow: the panel quad areas are not finite")
    return areas


def panel_area_exact(pair: str, t: Triangle):
    """Pair area straight from coordinates; integer in, integer out.

    R -> dot(C->A, C->B), S -> dot(A->B, A->C), T -> dot(B->A, B->C).
    """
    if pair not in _PAIR_VERTEX:
        raise ValueError(f"unknown pair class {pair!r}, expected one of {PAIR_CLASSES}")
    return t.frame[DOTS][VERTICES.index(_PAIR_VERTEX[pair])]


def _trig_areas(f: tuple, cos_alpha, cos_beta, cos_gamma) -> tuple:
    """The pair areas R, S, T on the trigonometric route from a frame's
    sides, given the angles' cosines."""
    a, b, c = f[SIDES]
    return a * b * cos_gamma, b * c * cos_alpha, a * c * cos_beta


def panel_area_trig(pair: str, m: TriangleMetrics) -> float:
    """Pair area on the trigonometric route: two sides times the included cosine."""
    if pair not in _PAIR_VERTEX:
        raise ValueError(f"unknown pair class {pair!r}, expected one of {PAIR_CLASSES}")
    areas = _trig_areas(m.frame, math.cos(m.alpha), math.cos(m.beta), math.cos(m.gamma))
    return areas[PAIR_CLASSES.index(pair)]


def build(t: Triangle) -> CuocoDecomposition:
    """Construct the three exterior squares and the six altitude panels."""
    squares = []
    panels = []
    dots = dict(zip(VERTICES, t.frame[DOTS]))
    for (side, (first, second, _)), corners in zip(SIDE_FRAMES.items(), _side_corners(t.frame)):
        p, q = getattr(t, first), getattr(t, second)
        fx, fy, pox, poy, qox, qoy, fox, foy = corners[4:]
        foot, p_out = _point(fx, fy), _point(pox, poy)
        q_out, foot_out = _point(qox, qoy), _point(fox, foy)
        squares.append(SquareOnSide(side, (q, p, p_out, q_out)))
        first_label, second_label = HOSTED_PANELS[side]
        panels.append(RectanglePanel(first_label, side, dots[first], (foot, p, p_out, foot_out)))
        panels.append(RectanglePanel(second_label, side, dots[second], (q, foot, foot_out, q_out)))
    # Built as T2, R1, R2, S1, S2, T1; one place round is PANEL_LABELS order.
    panels = panels[1:] + panels[:1]
    # Each panel's signed area is its pair's panel_area_exact: the same
    # dot of the same two legs.
    r1, _, s1, _, t1, _ = panels
    return CuocoDecomposition(
        triangle=t,
        metrics=t.metrics,
        squares=tuple(squares),
        panels=tuple(panels),
        pair_areas=PairAreas(R=r1.signed_area, S=s1.signed_area, T=t1.signed_area),
    )


class SimilarityReport(_Record):
    """Equal products from the similar altitude-foot triangles at a vertex.

    At vertex V with cyclic neighbors P and Q, the altitude from P lands
    at H on line VQ and the altitude from Q lands at K on line VP. The
    right triangles VPK and VQH share the angle at V, so they are similar
    and |VP| * ck = |VQ| * ch, where ch, ck are the signed distances from
    V to H along V->Q and from V to K along V->P. No trigonometry enters;
    both sides equal |VP|*|VQ|*cos(angle at V) only after the fact.
    """

    __slots__ = _fields = ("vertex", "ch", "ck", "residual", "scale")

    def __init__(self, vertex: str, ch: float, ck: float, residual: float, scale: float) -> None:
        self.vertex = vertex
        self.ch = ch  # signed distance from V to the altitude foot on line V->Q
        self.ck = ck  # signed distance from V to the altitude foot on line V->P
        self.residual = residual  # |VP| * ck - |VQ| * ch
        self.scale = scale


# Vertex V -> the frame's values _similarity reads: V, the legs (P - V, Q - V),
# the feet from P (on line VQ) and from Q (on line VP), |VP| and |VQ|, with
# (P, Q) = OPPOSITE_SIDE[V] and v, p, q the three's indices.
_SIMILARITY_READERS = {
    name: itemgetter(COORDS.start + 2 * v, COORDS.start + 2 * v + 1,
                     *range(LEGS.start + 4 * v, LEGS.start + 4 * v + 4), FEET.start + 2 * p,
                     FEET.start + 2 * p + 1, FEET.start + 2 * q, FEET.start + 2 * q + 1,
                     SIDES.start + q, SIDES.start + p)
    for name, v, p, q in (("A", 0, 1, 2), ("B", 1, 2, 0), ("C", 2, 0, 1))}


def _similarity(f: tuple, at_vertex: str) -> tuple[float, float, float, float]:
    """similarity_check's (ch, ck, residual, scale) at a vertex, from a frame."""
    # |VP| and |VQ| are the same square roots of the same dots as norm(vp), norm(vq).
    vx, vy, vpx, vpy, vqx, vqy, hx, hy, kx, ky, len_vp, len_vq = _SIMILARITY_READERS[at_vertex](f)
    ch = ((hx - vx) * vqx + (hy - vy) * vqy) / len_vq  # dot(foot_h - v, vq)
    ck = ((kx - vx) * vpx + (ky - vy) * vpy) / len_vp
    product = len_vp * len_vq  # the scale is max(1.0, product)
    return ch, ck, len_vp * ck - len_vq * ch, product if product > 1.0 else 1.0


def similarity_check(t: Triangle, at_vertex: str) -> SimilarityReport:
    _check_vertex(at_vertex)
    return SimilarityReport(at_vertex, *_similarity(t.frame, at_vertex))


class DerivationStep(_Record):
    __slots__ = _fields = ("expression", "panels", "value")

    def __init__(self, expression: str, panels: tuple[str, ...], value: float) -> None:
        self.expression, self.panels, self.value = expression, panels, value


class DerivationTrace(_Record):
    __slots__ = _fields = ("steps", "residual", "max_deviation")

    def __init__(self, steps: tuple[DerivationStep, ...], residual: float,
                 max_deviation: float) -> None:
        self.steps = steps
        self.residual = residual  # a^2 - (b^2 + c^2 - 2*S)
        self.max_deviation = max_deviation  # worst |step - a^2|


# The equal-area chain, step by step: (expression, panels it reads).
_CHAIN = (
    ("a^2", ()),
    ("R1 + T2", ("R1", "T2")),
    ("R2 + T1", ("R2", "T1")),
    ("(b^2 - S1) + (c^2 - S2)", ("S1", "S2")),
    ("b^2 + c^2 - 2*S", ("S1", "S2")),
)


def _chain(f: tuple, quad_areas, s_pair) -> tuple[tuple, float]:
    """The values of the _CHAIN steps from a frame's metrics, the quad areas
    (in PANEL_LABELS order) and the S pair area, and the worst |step - a^2|."""
    a2, b2, c2 = f[SIDE_SQUARES]
    r1, r2, s1, s2, t1, t2 = quad_areas
    values = (a2, r1 + t2, r2 + t1, (b2 - s1) + (c2 - s2), b2 + c2 - 2.0 * s_pair)
    return values, _worst([abs(value - a2) for value in values])


def _trace(values, max_deviation: float) -> DerivationTrace:
    """The trace of the _CHAIN step values and their worst |step - a^2|."""
    steps = tuple(DerivationStep(expression, panels, value)
                  for (expression, panels), value in zip(_CHAIN, values))
    residual = values[0] - values[-1]
    return DerivationTrace(steps=steps, residual=residual, max_deviation=max_deviation)


def derive_cosine_theorem(d: CuocoDecomposition) -> DerivationTrace:
    """Walk the equal-area chain from a^2 down to b^2 + c^2 - 2*S.

    Intermediate steps use the constructed quads (the geometric route);
    the final form uses the certified S pair area.
    """
    return _trace(*_chain(d.metrics.frame, _quad_areas(d.triangle.frame), d.pair_areas.S))
