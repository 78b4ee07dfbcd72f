"""Deterministic SVG drawings of the constructions.

Rendering is a pure function of (data, spec): identical input yields
byte-identical SVG 1.1 text. Coordinates are emitted at a fixed decimal
precision inside a single y-flipped group, so the mathematical orientation
(y up) matches the visual one. Element order is fixed: squares, panels
sorted by label, triangle, circles, lines, labels.
"""

from __future__ import annotations

import math
from functools import partial

from . import circles, decomposition
from .circles import CircumcircleData, IncircleData, _NEXT_SIDE
from .decomposition import CuocoDecomposition, SIDE_FRAMES, shoelace
from .geometry import Point, Triangle, VERTICES, foot_of_altitude, perp, _Frozen

_NS = "http://www.w3.org/2000/svg"

FILL_PALETTE = {
    "a": "#bfdbfe", "b": "#bbf7d0", "c": "#fecaca",
    "R": "#fde68a", "S": "#c7d2fe", "T": "#fbcfe8",
    "triangle": "#f3f4f6", "defect": "#fde68a",
}

STROKE_PALETTE = {"main": "#1f2937", "light": "#9ca3af", "accent": "#b91c1c"}


class KindMismatch(ValueError):
    """Data object does not carry what the requested kind draws."""


class FigureSpec(_Frozen):
    __slots__ = _fields = ("kind", "labels", "precision")

    def __init__(self, kind: str, labels: bool = True, precision: int = 6) -> None:
        _row(kind)  # an unknown kind raises ValueError
        if (isinstance(precision, bool) or not isinstance(precision, int)
                or not 1 <= precision <= 12):
            raise ValueError(f"precision must be an integer in [1, 12], got {precision!r}")
        self._store(kind, labels, precision)


class _Sheet:
    """Collects formatted elements in the fixed order and tracks the bbox.
    Sizes scale with the diagonal of the bbox of the outline `points`."""

    def __init__(self, spec: FigureSpec, points):
        self.spec = spec
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        self.diag = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        self.squares: list[str] = []
        self.panels: list[str] = []
        self.triangle: list[str] = []
        self.circles: list[str] = []
        self.lines: list[str] = []
        self.labels: list[str] = []
        self._min_x = math.inf
        self._min_y = math.inf
        self._max_x = -math.inf
        self._max_y = -math.inf

    def fmt(self, value: float) -> str:
        return f"{float(value):.{self.spec.precision}f}"

    def _cover(self, x: float, y: float, pad: float = 0.0) -> None:
        self._min_x = min(self._min_x, x - pad)
        self._min_y = min(self._min_y, y - pad)
        self._max_x = max(self._max_x, x + pad)
        self._max_y = max(self._max_y, y + pad)

    def _points_attr(self, pts) -> str:
        chunks = []
        for p in pts:
            self._cover(p.x, p.y)
            chunks.append(f"{self.fmt(p.x)},{self.fmt(p.y)}")
        return " ".join(chunks)

    @property
    def thin(self) -> str:
        return self.fmt(0.003 * self.diag)

    @property
    def wide(self) -> str:
        return self.fmt(0.005 * self.diag)

    def add_square(self, pts, fill: str) -> None:
        coords = []
        for p in pts:
            self._cover(p.x, p.y)
            coords.append(f"{self.fmt(p.x)} {self.fmt(p.y)}")
        d = "M " + " L ".join(coords) + " Z"
        self.squares.append(
            f'<path class="square" d="{d}" fill="{fill}" fill-opacity="0.5" '
            f'stroke="{STROKE_PALETTE["main"]}" stroke-width="{self.wide}"/>'
        )

    def add_panel(self, label: str, pts, fill: str, negative: bool, dashed: bool) -> None:
        classes = f"panel panel-{label}" + (" negative" if negative else "")
        paint = "url(#hatch)" if negative else fill
        dash = f' stroke-dasharray="{self.fmt(0.02 * self.diag)}"' if dashed else ""
        self.panels.append(
            f'<polygon class="{classes}" points="{self._points_attr(pts)}" fill="{paint}" '
            f'fill-opacity="0.75" stroke="{STROKE_PALETTE["accent" if negative else "main"]}" '
            f'stroke-width="{self.thin}"{dash}/>'
        )

    def add_triangle(self, pts) -> None:
        self.triangle.append(
            f'<polygon class="triangle" points="{self._points_attr(pts)}" '
            f'fill="{FILL_PALETTE["triangle"]}" '
            f'stroke="{STROKE_PALETTE["main"]}" stroke-width="{self.wide}"/>'
        )

    def add_polygon(self, cls: str, pts, fill: str) -> None:
        self.triangle.append(
            f'<polygon class="{cls}" points="{self._points_attr(pts)}" fill="{fill}" '
            f'fill-opacity="0.6" stroke="{STROKE_PALETTE["main"]}" stroke-width="{self.thin}"/>'
        )

    def add_circle(self, cls: str, center: Point, r: float, filled: bool) -> None:
        self._cover(center.x, center.y, pad=r)
        paint = STROKE_PALETTE["main"] if filled else "none"
        self.circles.append(
            f'<circle class="{cls}" cx="{self.fmt(center.x)}" cy="{self.fmt(center.y)}" '
            f'r="{self.fmt(r)}" fill="{paint}" stroke="{STROKE_PALETTE["main"]}" '
            f'stroke-width="{self.thin}"/>'
        )

    def add_line(self, cls: str, p: Point, q: Point) -> None:
        self._cover(p.x, p.y)
        self._cover(q.x, q.y)
        self.lines.append(
            f'<line class="{cls}" x1="{self.fmt(p.x)}" y1="{self.fmt(p.y)}" '
            f'x2="{self.fmt(q.x)}" y2="{self.fmt(q.y)}" stroke="{STROKE_PALETTE["light"]}" '
            f'stroke-width="{self.thin}" stroke-dasharray="{self.fmt(0.02 * self.diag)}"/>'
        )

    def add_label(self, pos: Point, text: str) -> None:
        if not self.spec.labels:
            return
        self._cover(pos.x, pos.y)
        size = self.fmt(0.045 * self.diag)
        # The group below flips y; each label flips itself back.
        self.labels.append(
            f'<text class="label" transform="translate({self.fmt(pos.x)} {self.fmt(pos.y)}) '
            f'scale(1 -1)" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="middle" fill="{STROKE_PALETTE["main"]}">{text}</text>'
        )

    def document(self) -> str:
        width = self._max_x - self._min_x
        height = self._max_y - self._min_y
        margin = 0.05 * max(width, height)
        view = (
            f"{self.fmt(self._min_x - margin)} {self.fmt(-(self._max_y + margin))} "
            f"{self.fmt(width + 2 * margin)} {self.fmt(height + 2 * margin)}"
        )
        period = self.fmt(0.025 * self.diag)
        stripe = self.fmt(0.008 * self.diag)
        parts = [
            f'<svg xmlns="{_NS}" version="1.1" viewBox="{view}">',
            "<defs>",
            f'<pattern id="hatch" patternUnits="userSpaceOnUse" width="{period}" '
            f'height="{period}" patternTransform="rotate(45)">',
            f'<rect width="{period}" height="{period}" fill="#ffffff"/>',
            f'<line x1="0" y1="0" x2="0" y2="{period}" stroke="{STROKE_PALETTE["accent"]}" '
            f'stroke-width="{stripe}"/>',
            "</pattern>",
            "</defs>",
            '<g transform="scale(1 -1)">',
            *self.squares,
            *self.panels,
            *self.triangle,
            *self.circles,
            *self.lines,
            *self.labels,
            "</g>",
            "</svg>",
        ]
        return "\n".join(parts) + "\n"


def _away_from(anchor: Point, reference: Point, amount: float) -> Point:
    d = anchor - reference
    length = math.hypot(d.x, d.y)
    if length == 0.0:
        return anchor
    k = amount / length
    return Point(anchor.x + k * d.x, anchor.y + k * d.y)


def _centroid(pts) -> Point:
    n = len(pts)
    return Point(sum(p.x for p in pts) / n, sum(p.y for p in pts) / n)


def _vertex_labels(sheet: _Sheet, t: Triangle) -> None:
    centroid = _centroid((t.A, t.B, t.C))
    offset = 0.07 * sheet.diag
    for name in VERTICES:
        sheet.add_label(_away_from(getattr(t, name), centroid, offset), name)


def _draw_euclid_defect(t: Triangle, spec: FigureSpec) -> _Sheet:
    foot, _ = foot_of_altitude(t, "A")
    n = perp(t.B - t.C)  # away from A, length |BC|
    far_b, far_foot = t.B + n, foot + n
    sheet = _Sheet(spec, (t.A, t.B, t.C, foot, far_foot, far_b))
    sheet.add_polygon("defect", (foot, t.B, far_b, far_foot), FILL_PALETTE["defect"])
    sheet.add_triangle((t.A, t.B, t.C))
    sheet.add_line("altitude", t.A, foot)
    _vertex_labels(sheet, t)
    sheet.add_label(_away_from(foot, far_foot, 0.06 * sheet.diag), "D")
    return sheet


def _draw_cuoco(d: CuocoDecomposition, spec: FigureSpec, by_pair: bool,
                dash_oversized: bool) -> _Sheet:
    t, m = d.triangle, d.metrics
    side_sq = dict(zip(SIDE_FRAMES, m.side_squares))
    sheet = _Sheet(spec, [p for sq in d.squares for p in sq.vertices]
                   + [p for panel in d.panels for p in panel.quad])
    for sq in d.squares:
        sheet.add_square(sq.vertices, FILL_PALETTE[sq.side])
    for panel in d.panels:
        fill = FILL_PALETTE[panel.pair if by_pair else panel.host]
        # Oversized: larger than its host square, as beside an obtuse angle.
        dashed = dash_oversized and abs(shoelace(panel.quad)) > side_sq[panel.host] * (1.0 + 1e-12)
        sheet.add_panel(panel.label, panel.quad, fill, negative=panel.signed_area < 0, dashed=dashed)
        sheet.add_label(_centroid(panel.quad), panel.label)
    sheet.add_triangle((t.A, t.B, t.C))
    for side, (first, second, opposite) in SIDE_FRAMES.items():
        foot, _ = t._feet[opposite]
        n = perp(t._legs[second][1])  # first - second
        # The far end lies on the outer edge of the square; the altitude
        # line through the foot is parallel to n, so this stays straight.
        sheet.add_line("altitude", getattr(t, opposite), foot + n)
    _vertex_labels(sheet, t)
    return sheet


def _circle_sheet(data, spec: FigureSpec, cls: str) -> _Sheet:
    """The triangle, its circle of class `cls`, the centre and the vertex labels."""
    t, c, r = data.triangle, data.center, data.radius
    sheet = _Sheet(spec, (t.A, t.B, t.C, Point(c.x - r, c.y - r), Point(c.x + r, c.y + r)))
    sheet.add_triangle((t.A, t.B, t.C))
    sheet.add_circle(cls, c, r, filled=False)
    sheet.add_circle("center", c, 0.012 * sheet.diag, filled=True)
    _vertex_labels(sheet, t)
    return sheet


def _draw_incircle(data: IncircleData, spec: FigureSpec) -> _Sheet:
    t = data.triangle
    sheet = _circle_sheet(data, spec, "incircle")
    for side in ("a", "b", "c"):
        sheet.add_circle("tangent-point", data.tangent_points[side], 0.012 * sheet.diag, filled=True)
    sheet.add_label(_away_from(data.center, t.A, 0.05 * sheet.diag), "I")
    for name in VERTICES:
        v = getattr(t, name)
        tp = data.tangent_points[_NEXT_SIDE[name]]
        mid = Point((v.x + tp.x) / 2.0, (v.y + tp.y) / 2.0)
        sheet.add_label(
            _away_from(mid, data.center, 0.06 * sheet.diag),
            f"{data.tangent_lengths[name]:.3f}",
        )
    return sheet


def _draw_circumcircle(data: CircumcircleData, spec: FigureSpec) -> _Sheet:
    t = data.triangle
    sheet = _circle_sheet(data, spec, "circumcircle")
    for name in VERTICES:
        sheet.add_line("radius", data.center, getattr(t, name))
    sheet.add_label(_away_from(data.center, _centroid((t.A, t.B, t.C)), 0.05 * sheet.diag), "O")
    return sheet


# The one place a figure kind is named: kind -> (the construction it draws,
# its builder from a triangle, its drawing function), in the order the CLI
# and the package export list the kinds. The builders call through their
# module, so a wrapper later bound to the module attribute sees the call.
_KINDS = {
    "euclid_defect": (Triangle, lambda t: t, _draw_euclid_defect),
    "cuoco": (CuocoDecomposition, lambda t: decomposition.build(t),
              partial(_draw_cuoco, by_pair=False, dash_oversized=False)),
    "cuoco_pairs": (CuocoDecomposition, lambda t: decomposition.build(t),
                    partial(_draw_cuoco, by_pair=True, dash_oversized=False)),
    "cuoco_obtuse": (CuocoDecomposition, lambda t: decomposition.build(t),
                     partial(_draw_cuoco, by_pair=True, dash_oversized=True)),
    "incircle": (IncircleData, lambda t: circles.incircle(t), _draw_incircle),
    "circumcircle": (CircumcircleData, lambda t: circles.circumcircle(t), _draw_circumcircle),
}

KINDS = tuple(_KINDS)


def _row(kind: str):
    if kind not in _KINDS:
        raise ValueError(f"unknown figure kind {kind!r}, expected one of {KINDS}")
    return _KINDS[kind]


def construction(kind: str, t: Triangle):
    """The construction `kind` draws, built from the triangle `t`."""
    return _row(kind)[1](t)


def render(data, spec: FigureSpec) -> str:
    """Draw `data` according to `spec` and return the SVG document text."""
    expected, _, draw = _KINDS[spec.kind]
    if not isinstance(data, expected):
        raise KindMismatch(
            f"kind {spec.kind!r} draws {expected.__name__}, got {type(data).__name__}"
        )
    return draw(data, spec).document()
