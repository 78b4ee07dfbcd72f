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

from .geometry import (CHAIN, CHAIN_DEVIATIONS, VERTICES, Triangle, TriangleMetrics, cross,
                       frame_getter, _check_vertex, _point, _Record, _worst)

PAIR_CLASSES = ("R", "S", "T")
PANEL_LABELS = ("R1", "R2", "S1", "S2", "T1", "T2")

# Side -> (first endpoint, second endpoint, opposite vertex), cyclic order.
SIDE_FRAMES = {"a": ("B", "C", "A"), "b": ("C", "A", "B"), "c": ("A", "B", "C")}

# Side -> (panel touching the first endpoint, panel touching the second).
HOSTED_PANELS = {"a": ("T2", "R1"), "b": ("R2", "S1"), "c": ("S2", "T1")}

# Pair class -> the vertex whose two legs' dot is its area.
_PAIR_VERTEX = {"R": "C", "S": "A", "T": "B"}
# The frame values the builders read: the pair areas; a side's foot and its
# corners moved out, p_out, q_out and foot_out; a vertex's similarity values.
_PAIR_AREAS = frame_getter("R S T")
_SIDE_POINTS = {e: frame_getter(f"foot_{v}_x foot_{v}_y p_out_{e}_x p_out_{e}_y q_out_{e}_x "
                                f"q_out_{e}_y foot_out_{e}_x foot_out_{e}_y")
                for e, (_, _, v) in SIDE_FRAMES.items()}
_SIMILARITY = {v: frame_getter(f"ch_{v} ck_{v} similar_{v} scale_{v}") for v in VERTICES}


class SquareOnSide(_Record):
    """Exterior square; vertices counterclockwise, first two on the triangle side."""

    # side: "a" | "b" | "c"; vertices: four Points
    __slots__ = _fields = ("side", "vertices")


class RectanglePanel(_Record):
    # label: one of PANEL_LABELS; host: side id of the host square; signed_area:
    # dot-product value, exact for integer coordinates; quad: constructed
    # corners, four Points, degenerate at a right angle
    __slots__ = _fields = ("label", "host", "signed_area", "quad")

    @property
    def pair(self) -> str:
        return self.label[0]


class PairAreas(_Record):
    __slots__ = _fields = ("R", "S", "T")


class CuocoDecomposition(_Record):
    # squares: sides a, b, c; panels: in PANEL_LABELS order
    __slots__ = _fields = ("triangle", "metrics", "squares", "panels", "pair_areas")


def shoelace(points) -> float:
    """Signed area of a polygon given as a sequence of Points."""
    total = 0
    n = len(points)
    for i in range(n):
        total += cross(points[i], points[(i + 1) % n])
    return total / 2


def panel_area_exact(pair: str, t: Triangle):
    """Pair area straight from coordinates; integer in, integer out.

    R -> dot(C->A, C->B), S -> dot(A->B, A->C), T -> dot(B->A, B->C).
    """
    if pair not in _PAIR_VERTEX:
        raise ValueError(f"unknown pair class {pair!r}, expected one of {PAIR_CLASSES}")
    return _PAIR_AREAS(t.frame)[PAIR_CLASSES.index(pair)]


def panel_area_trig(pair: str, m: TriangleMetrics) -> float:
    """Pair area on the trigonometric route: two sides times the included cosine."""
    if pair not in _PAIR_VERTEX:
        raise ValueError(f"unknown pair class {pair!r}, expected one of {PAIR_CLASSES}")
    a, b, c = m.a, m.b, m.c
    return (a * b * math.cos(m.gamma) if pair == "R" else b * c * math.cos(m.alpha) if pair == "S"
            else a * c * math.cos(m.beta))


def build(t: Triangle) -> CuocoDecomposition:
    """Construct the three exterior squares and the six altitude panels."""
    f = t.frame
    squares, panels, pair_areas = [], [], _PAIR_AREAS(f)
    # Each panel's signed area is its pair's panel_area_exact: the dot of the
    # two legs at the vertex it touches.
    area = {_PAIR_VERTEX[pair]: value for pair, value in zip(PAIR_CLASSES, pair_areas)}
    for side, (first, second, _) in SIDE_FRAMES.items():
        p, q = getattr(t, first), getattr(t, second)
        fx, fy, pox, poy, qox, qoy, fox, foy = _SIDE_POINTS[side](f)
        foot, p_out = _point(fx, fy), _point(pox, poy)
        q_out, foot_out = _point(qox, qoy), _point(fox, foy)
        squares.append(SquareOnSide(side, (q, p, p_out, q_out)))
        first_label, second_label = HOSTED_PANELS[side]
        panels.append(RectanglePanel(first_label, side, area[first], (foot, p, p_out, foot_out)))
        panels.append(RectanglePanel(second_label, side, area[second], (q, foot, foot_out, q_out)))
    # Built as T2, R1, R2, S1, S2, T1; one place round is PANEL_LABELS order.
    panels = panels[1:] + panels[:1]
    return CuocoDecomposition(t, t.metrics, tuple(squares), tuple(panels), PairAreas(*pair_areas))


class SimilarityReport(_Record):
    """Equal products from the similar altitude-foot triangles at a vertex.

    At vertex V with cyclic neighbors P and Q, the altitude from P lands
    at H on line VQ and the altitude from Q lands at K on line VP. The
    right triangles VPK and VQH share the angle at V, so they are similar
    and |VP| * ck = |VQ| * ch, where ch, ck are the signed distances from
    V to H along V->Q and from V to K along V->P. No trigonometry enters;
    both sides equal |VP|*|VQ|*cos(angle at V) only after the fact.
    """

    # ch: signed distance from V to the altitude foot on line V->Q; ck: signed
    # distance from V to the altitude foot on line V->P; residual: |VP| * ck - |VQ| * ch
    __slots__ = _fields = ("vertex", "ch", "ck", "residual", "scale")


def similarity_check(t: Triangle, at_vertex: str) -> SimilarityReport:
    _check_vertex(at_vertex)
    return SimilarityReport(at_vertex, *_SIMILARITY[at_vertex](t.frame))


class DerivationStep(_Record):
    __slots__ = _fields = ("expression", "panels", "value")


class DerivationTrace(_Record):
    # residual: a^2 - (b^2 + c^2 - 2*S); max_deviation: worst |step - a^2|
    __slots__ = _fields = ("steps", "residual", "max_deviation")


# The equal-area chain, step by step: (expression, panels it reads).
_CHAIN = (
    ("a^2", ()),
    ("R1 + T2", ("R1", "T2")),
    ("R2 + T1", ("R2", "T1")),
    ("(b^2 - S1) + (c^2 - S2)", ("S1", "S2")),
    ("b^2 + c^2 - 2*S", ("S1", "S2")),
)


def derive_cosine_theorem(d: CuocoDecomposition) -> DerivationTrace:
    """Walk the equal-area chain from a^2 down to b^2 + c^2 - 2*S.

    Intermediate steps use the constructed quads (the geometric route);
    the final form uses the certified S pair area.
    """
    values, deviations = d.triangle.frame[CHAIN], d.triangle.frame[CHAIN_DEVIATIONS]
    steps = tuple(DerivationStep(expression, panels, value)
                  for (expression, panels), value in zip(_CHAIN, values))
    return DerivationTrace(steps=steps, residual=values[0] - values[-1],
                           max_deviation=_worst([abs(deviation) for deviation in deviations]))
