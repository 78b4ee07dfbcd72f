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
from .circles import CircumcircleData, IncircleData
from .decomposition import CuocoDecomposition, HOSTED_PANELS, SIDE_FRAMES
from .geometry import (QUAD_AREAS, VERTICES, NonFiniteCoordinate, Point, Triangle, _Frozen,
                       _point)

_NS = "http://www.w3.org/2000/svg"

FILL_PALETTE = {
    "a": "#bfdbfe", "b": "#bbf7d0", "c": "#fecaca",
    "R": "#fde68a", "S": "#c7d2fe", "T": "#fbcfe8",
    "triangle": "#f3f4f6", "defect": "#fde68a",
}

STROKE_PALETTE = {"main": "#1f2937", "light": "#9ca3af", "accent": "#b91c1c"}

# Vertex -> the side reached by walking to the cyclically next vertex.
_NEXT_SIDE = {"A": "c", "B": "a", "C": "b"}


class KindMismatch(ValueError):
    """Data object does not carry what the requested kind draws."""


class FigureSpec(_Frozen):
    __slots__ = _fields = ("kind", "labels", "precision")

    def __init__(self, kind: str, labels: bool = True, precision: int = 6) -> None:
        _row(kind)  # an unknown kind raises ValueError
        if not isinstance(labels, bool):
            raise ValueError(f"labels must be a bool, got {labels!r}")
        if (isinstance(precision, bool) or not isinstance(precision, int)
                or not 1 <= precision <= 12):
            raise ValueError(f"precision must be an integer in [1, 12], got {precision!r}")
        self._store(kind, labels, precision)


class _Sheet:
    """Collects formatted elements in paint order and the coordinates they
    cover. Sizes scale with the diagonal of the bbox of the outline `points`."""

    def __init__(self, spec: FigureSpec, points):
        self.spec = spec
        # `%` gives f"{float(v):.{p}f}"'s digits, or its OverflowError, for any v.
        self.num = f"%.{spec.precision}f"
        self.fmt = self.num.__mod__
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        self.diag = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        self.thin, self.wide, self.dash, self.size = (
            self.fmt(k * self.diag) for k in (0.003, 0.005, 0.02, 0.045))
        self.elements: list[str] = []
        self.xs: list = []  # every covered x; a circle covers its centre's x ± r
        self.ys: list = []

    def _coords(self, pts, sep: str, between: str) -> str:
        """Cover each point and format it as x `sep` y, the points joined by `between`."""
        xy = f"{self.num}{sep}{self.num}"
        chunks = []
        for p in pts:
            self.xs.append(p.x)
            self.ys.append(p.y)
            chunks.append(xy % (p.x, p.y))
        return between.join(chunks)

    def add_square(self, pts, fill: str) -> None:
        self.elements.append(
            f'<path class="square" d="M {self._coords(pts, " ", " L ")} Z" fill="{fill}" '
            f'fill-opacity="0.5" stroke="{STROKE_PALETTE["main"]}" stroke-width="{self.wide}"/>'
        )

    def add_panel(self, label: str, pts, fill: str, negative: bool, dashed: bool) -> None:
        classes = f"panel panel-{label}" + (" negative" if negative else "")
        paint = "url(#hatch)" if negative else fill
        dash = f' stroke-dasharray="{self.dash}"' if dashed else ""
        self.elements.append(
            f'<polygon class="{classes}" points="{self._coords(pts, ",", " ")}" fill="{paint}" '
            f'fill-opacity="0.75" stroke="{STROKE_PALETTE["accent" if negative else "main"]}" '
            f'stroke-width="{self.thin}"{dash}/>'
        )

    def add_polygon(self, cls: str, pts, fill: str, opacity: str = "") -> None:
        """Thin and filled at `opacity`; with none, opaque and wide, as the triangle."""
        width, shade = (self.thin, f' fill-opacity="{opacity}"') if opacity else (self.wide, "")
        self.elements.append(
            f'<polygon class="{cls}" points="{self._coords(pts, ",", " ")}" fill="{fill}"{shade} '
            f'stroke="{STROKE_PALETTE["main"]}" stroke-width="{width}"/>'
        )

    def add_circle(self, cls: str, center: Point, r: float, filled: bool) -> None:
        self.xs += (center.x - r, center.x + r)
        self.ys += (center.y - r, center.y + r)
        paint = STROKE_PALETTE["main"] if filled else "none"
        self.elements.append(
            f'<circle class="{cls}" cx="{self.fmt(center.x)}" cy="{self.fmt(center.y)}" '
            f'r="{self.fmt(r)}" fill="{paint}" stroke="{STROKE_PALETTE["main"]}" '
            f'stroke-width="{self.thin}"/>'
        )

    def add_line(self, cls: str, p: Point, q: Point) -> None:
        self.xs += (p.x, q.x)
        self.ys += (p.y, q.y)
        self.elements.append(
            f'<line class="{cls}" x1="{self.fmt(p.x)}" y1="{self.fmt(p.y)}" '
            f'x2="{self.fmt(q.x)}" y2="{self.fmt(q.y)}" stroke="{STROKE_PALETTE["light"]}" '
            f'stroke-width="{self.thin}" stroke-dasharray="{self.dash}"/>'
        )

    def add_label(self, pos: Point, text: str) -> None:
        if not self.spec.labels:
            return
        # The group below flips y; each label flips itself back.
        self.elements.append(
            f'<text class="label" transform="translate({self._coords((pos,), " ", "")}) '
            f'scale(1 -1)" font-size="{self.size}" font-family="sans-serif" '
            f'text-anchor="middle" fill="{STROKE_PALETTE["main"]}">{text}</text>'
        )

    def document(self) -> str:
        # Rounding is monotonic: float() of the exact extreme is the extreme of the floats.
        min_x, max_x = float(min(self.xs)), float(max(self.xs))
        min_y, max_y = float(min(self.ys)), float(max(self.ys))
        width = max_x - min_x
        height = max_y - min_y
        margin = 0.05 * max(width, height)
        extents = width + 2 * margin, height + 2 * margin
        view = " ".join([self.num] * 4) % (min_x - margin, -(max_y + margin), *extents)
        # A zero viewBox width or height disables rendering (SVG 1.1, 7.7).
        if not all(float(extent) for extent in view.split()[2:]):
            raise ValueError(
                f"the drawing is {extents[0]:.3g} by {extents[1]:.3g} units, "
                f"which prints as zero at precision {self.spec.precision}; raise the precision")
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
            *self.elements,
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
    if k == math.inf:  # a subnormal length: the unit vector first
        return _point(anchor.x + amount * (d.x / length), anchor.y + amount * (d.y / length))
    return _point(anchor.x + k * d.x, anchor.y + k * d.y)


def _centroid(pts) -> Point:
    n = len(pts)
    return _point(sum(p.x for p in pts) / n, sum(p.y for p in pts) / n)


def _vertex_labels(sheet: _Sheet, t: Triangle) -> None:
    centroid = _centroid((t.A, t.B, t.C))
    offset = 0.07 * sheet.diag
    for name in VERTICES:
        sheet.add_label(_away_from(getattr(t, name), centroid, offset), name)


def _draw_euclid_defect(t: Triangle, spec: FigureSpec) -> _Sheet:
    # Panel T2, (foot, B, B_out, foot_out), is the rectangle BC·BD, on side a.
    fx, fy, bx, by, _, _, ox, oy = decomposition._SIDE_POINTS["a"](t.frame)
    foot, far_b, far_foot = _point(fx, fy), _point(bx, by), _point(ox, oy)
    sheet = _Sheet(spec, (t.A, t.B, t.C, foot, far_foot, far_b))
    sheet.add_polygon("defect", (foot, t.B, far_b, far_foot), FILL_PALETTE["defect"], "0.6")
    sheet.add_polygon("triangle", (t.A, t.B, t.C), FILL_PALETTE["triangle"])
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
    for panel, area in zip(d.panels, t.frame[QUAD_AREAS]):
        fill = FILL_PALETTE[panel.pair if by_pair else panel.host]
        # Oversized: larger than its host square, as beside an obtuse angle.
        if dash_oversized and area != area:  # NaN, from overflow: neither larger nor not
            raise NonFiniteCoordinate("coordinates overflow: the panel quad areas are not numbers")
        dashed = dash_oversized and abs(area) > side_sq[panel.host] * (1.0 + 1e-12)
        sheet.add_panel(panel.label, panel.quad, fill, negative=panel.signed_area < 0, dashed=dashed)
    sheet.add_polygon("triangle", (t.A, t.B, t.C), FILL_PALETTE["triangle"])
    quads = {panel.label: panel.quad for panel in d.panels}
    for side, (_, _, opposite) in SIDE_FRAMES.items():
        # The side's first panel is (foot, p, p_out, foot_out): its last corner
        # ends the altitude on the outer edge of the square.
        sheet.add_line("altitude", getattr(t, opposite), quads[HOSTED_PANELS[side][0]][3])
    for panel in d.panels:
        sheet.add_label(_centroid(panel.quad), panel.label)
    _vertex_labels(sheet, t)
    return sheet


def _circle_sheet(data, spec: FigureSpec, cls: str) -> _Sheet:
    """The triangle, its circle of class `cls` and the centre."""
    t, c, r = data.triangle, data.center, data.radius
    sheet = _Sheet(spec, (t.A, t.B, t.C, _point(c.x - r, c.y - r), _point(c.x + r, c.y + r)))
    sheet.add_polygon("triangle", (t.A, t.B, t.C), FILL_PALETTE["triangle"])
    sheet.add_circle(cls, c, r, filled=False)
    sheet.add_circle("center", c, 0.012 * sheet.diag, filled=True)
    return sheet


def _draw_incircle(data: IncircleData, spec: FigureSpec) -> _Sheet:
    t = data.triangle
    sheet = _circle_sheet(data, spec, "incircle")
    for side in ("a", "b", "c"):
        sheet.add_circle("tangent-point", data.tangent_points[side], 0.012 * sheet.diag, filled=True)
    _vertex_labels(sheet, t)
    sheet.add_label(_away_from(data.center, t.A, 0.05 * sheet.diag), "I")
    for name in VERTICES:
        v = getattr(t, name)
        tp = data.tangent_points[_NEXT_SIDE[name]]
        mid = _point((v.x + tp.x) / 2.0, (v.y + tp.y) / 2.0)
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
    _vertex_labels(sheet, t)
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
