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
from dataclasses import dataclass

from .geometry import (
    OPPOSITE_SIDE,
    Point,
    Triangle,
    TriangleMetrics,
    cross,
    dot,
    norm,
    perp,
    _check_vertex,
)

PAIR_CLASSES = ("R", "S", "T")
PANEL_LABELS = ("R1", "R2", "S1", "S2", "T1", "T2")

# Side -> (first endpoint, second endpoint, opposite vertex), cyclic order.
SIDE_FRAMES = {"a": ("B", "C", "A"), "b": ("C", "A", "B"), "c": ("A", "B", "C")}

# Side -> (panel touching the first endpoint, panel touching the second).
HOSTED_PANELS = {"a": ("T2", "R1"), "b": ("R2", "S1"), "c": ("S2", "T1")}


@dataclass(slots=True)
class SquareOnSide:
    """Exterior square; vertices counterclockwise, first two on the triangle side."""

    side: str  # "a" | "b" | "c"
    vertices: tuple[Point, Point, Point, Point]


@dataclass(slots=True)
class RectanglePanel:
    label: str  # one of PANEL_LABELS
    host: str  # side id of the host square
    signed_area: float  # dot-product value, exact for integer coordinates
    quad: tuple[Point, Point, Point, Point]  # constructed corners, degenerate at a right angle

    @property
    def pair(self) -> str:
        return self.label[0]


@dataclass(slots=True)
class PairAreas:
    R: float
    S: float
    T: float

    def get(self, pair: str) -> float:
        if pair not in PAIR_CLASSES:
            raise ValueError(f"unknown pair class {pair!r}, expected one of {PAIR_CLASSES}")
        return getattr(self, pair)


@dataclass(slots=True)
class CuocoDecomposition:
    triangle: Triangle
    metrics: TriangleMetrics
    squares: tuple[SquareOnSide, SquareOnSide, SquareOnSide]  # sides a, b, c
    panels: tuple[RectanglePanel, ...]  # sorted by label
    pair_areas: PairAreas

    def square(self, side: str) -> SquareOnSide:
        for sq in self.squares:
            if sq.side == side:
                return sq
        raise ValueError(f"unknown side {side!r}")

    def panel(self, label: str) -> RectanglePanel:
        for p in self.panels:
            if p.label == label:
                return p
        raise ValueError(f"unknown panel {label!r}, expected one of {PANEL_LABELS}")


def shoelace(points) -> float:
    """Signed area of a polygon given as a sequence of Points."""
    total = 0
    n = len(points)
    for i in range(n):
        total += cross(points[i], points[(i + 1) % n])
    return total / 2.0


def panel_area_exact(pair: str, t: Triangle):
    """Pair area straight from coordinates; integer in, integer out.

    R -> dot(C->A, C->B), S -> dot(A->B, A->C), T -> dot(B->A, B->C).
    """
    if pair == "R":
        return dot(*t._legs["C"])
    if pair == "S":
        return dot(*t._legs["A"])
    if pair == "T":
        return dot(*t._legs["B"])
    raise ValueError(f"unknown pair class {pair!r}, expected one of {PAIR_CLASSES}")


def panel_area_trig(pair: str, m: TriangleMetrics) -> float:
    """Pair area on the trigonometric route: two sides times the included cosine."""
    if pair == "R":
        return m.a * m.b * math.cos(m.gamma)
    if pair == "S":
        return m.b * m.c * math.cos(m.alpha)
    if pair == "T":
        return m.a * m.c * math.cos(m.beta)
    raise ValueError(f"unknown pair class {pair!r}, expected one of {PAIR_CLASSES}")


def build(t: Triangle) -> CuocoDecomposition:
    """Construct the three exterior squares and the six altitude panels."""
    squares = []
    panels = []
    for side in ("a", "b", "c"):
        first, second, opposite = SIDE_FRAMES[side]
        p = getattr(t, first)
        q = getattr(t, second)
        # perp(p - q) points away from the triangle for a counterclockwise
        # vertex order, and has the side's length, so these four corners
        # are the exterior square, counterclockwise starting on the side.
        # The legs at p are (q - p, v - p) and at q (v - q, p - q).
        n = perp(t._legs[second][1])
        p_out, q_out = p + n, q + n
        squares.append(SquareOnSide(side, (q, p, p_out, q_out)))

        foot, _ = t._feet[opposite]
        foot_out = foot + n
        first_label, second_label = HOSTED_PANELS[side]
        panels.append(RectanglePanel(
            label=first_label,
            host=side,
            signed_area=dot(*t._legs[first]),
            quad=(foot, p, p_out, foot_out),
        ))
        panels.append(RectanglePanel(
            label=second_label,
            host=side,
            signed_area=dot(*t._legs[second]),
            quad=(q, foot, foot_out, q_out),
        ))
    panels.sort(key=lambda panel: panel.label)
    # Each panel's signed area is its pair's panel_area_exact: the same
    # dot product of the same two vectors.
    area = {panel.label: panel.signed_area for panel in panels}
    return CuocoDecomposition(
        triangle=t,
        metrics=t.metrics,
        squares=tuple(squares),
        panels=tuple(panels),
        pair_areas=PairAreas(R=area["R1"], S=area["S1"], T=area["T1"]),
    )


@dataclass(slots=True)
class PairCheck:
    pair: str
    first: str
    second: str
    area_first: float  # shoelace of the first panel's quad
    area_second: float
    delta: float


@dataclass(slots=True)
class PairEquivalenceReport:
    checks: tuple[PairCheck, PairCheck, PairCheck]
    scale: float
    tol: float
    passed: bool


def verify_pairs(d: CuocoDecomposition, tol: float = 1e-9) -> PairEquivalenceReport:
    """Compare the two constructed quads of each pair class by shoelace area."""
    m = d.metrics
    scale = max(1.0, m.a * m.a, m.b * m.b, m.c * m.c)
    checks = []
    for pair in PAIR_CLASSES:
        first, second = pair + "1", pair + "2"
        area_first = shoelace(d.panel(first).quad)
        area_second = shoelace(d.panel(second).quad)
        checks.append(PairCheck(
            pair=pair,
            first=first,
            second=second,
            area_first=area_first,
            area_second=area_second,
            delta=abs(area_first - area_second),
        ))
    passed = all(check.delta <= tol * scale for check in checks)
    return PairEquivalenceReport(checks=tuple(checks), scale=scale, tol=tol, passed=passed)


@dataclass(slots=True)
class SimilarityReport:
    """Equal products from the similar altitude-foot triangles at a vertex.

    At vertex V with cyclic neighbors P and Q, the altitude from P lands
    at H on line VQ and the altitude from Q lands at K on line VP. The
    right triangles VPK and VQH share the angle at V, so they are similar
    and |VP| * ck = |VQ| * ch, where ch, ck are the signed distances from
    V to H along V->Q and from V to K along V->P. No trigonometry enters;
    both sides equal |VP|*|VQ|*cos(angle at V) only after the fact.
    """

    vertex: str
    ch: float  # signed distance from V to the altitude foot on line V->Q
    ck: float  # signed distance from V to the altitude foot on line V->P
    residual: float  # |VP| * ck - |VQ| * ch
    scale: float
    tol: float
    passed: bool


def similarity_check(t: Triangle, at_vertex: str, tol: float = 1e-9) -> SimilarityReport:
    _check_vertex(at_vertex)
    v = getattr(t, at_vertex)
    first, second = OPPOSITE_SIDE[at_vertex]  # P, Q in cyclic order
    foot_h, _ = t._feet[first]  # on line (v, q)
    foot_k, _ = t._feet[second]  # on line (v, p)
    vp, vq = t._legs[at_vertex]
    len_vp = norm(vp)
    len_vq = norm(vq)
    ch = dot(foot_h - v, vq) / len_vq
    ck = dot(foot_k - v, vp) / len_vp
    residual = len_vp * ck - len_vq * ch
    scale = max(1.0, len_vp * len_vq)
    return SimilarityReport(
        vertex=at_vertex,
        ch=ch,
        ck=ck,
        residual=residual,
        scale=scale,
        tol=tol,
        passed=abs(residual) <= tol * scale,
    )


@dataclass(slots=True)
class DerivationStep:
    expression: str
    panels: tuple[str, ...]
    value: float


@dataclass(slots=True)
class DerivationTrace:
    steps: tuple[DerivationStep, ...]
    residual: float  # a^2 - (b^2 + c^2 - 2*S)
    max_deviation: float  # worst |step - a^2|


def derive_cosine_theorem(d: CuocoDecomposition) -> DerivationTrace:
    """Walk the equal-area chain from a^2 down to b^2 + c^2 - 2*S.

    Intermediate steps use the constructed quads (the geometric route);
    the final form uses the certified S pair area.
    """
    m = d.metrics
    a2, b2, c2 = m.a * m.a, m.b * m.b, m.c * m.c
    quad_area = {label: shoelace(d.panel(label).quad) for label in PANEL_LABELS}
    s_pair = d.pair_areas.S
    steps = (
        DerivationStep("a^2", (), a2),
        DerivationStep("R1 + T2", ("R1", "T2"), quad_area["R1"] + quad_area["T2"]),
        DerivationStep("R2 + T1", ("R2", "T1"), quad_area["R2"] + quad_area["T1"]),
        DerivationStep(
            "(b^2 - S1) + (c^2 - S2)",
            ("S1", "S2"),
            (b2 - quad_area["S1"]) + (c2 - quad_area["S2"]),
        ),
        DerivationStep("b^2 + c^2 - 2*S", ("S1", "S2"), b2 + c2 - 2.0 * s_pair),
    )
    residual = a2 - steps[-1].value
    max_deviation = max(abs(step.value - a2) for step in steps)
    return DerivationTrace(steps=steps, residual=residual, max_deviation=max_deviation)
