import hashlib
import math
import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cuoco import circles, decomposition
from cuoco.circles import incircle
from cuoco.cli import random_triangle
from cuoco.decomposition import build
from cuoco.figures import KINDS, FigureSpec, KindMismatch, _Sheet, construction, render
from cuoco.geometry import Point, Triangle, _point, triangle_from_sides

SVG_NS = "{http://www.w3.org/2000/svg}"

TRIANGLES = {
    "equilateral": triangle_from_sides(1.0, 1.0, 1.0),
    "right": triangle_from_sides(3.0, 4.0, 5.0),
    "obtuse": triangle_from_sides(2.0, 3.0, 4.0),
}
OBTUSE = TRIANGLES["obtuse"]


def content_counts(svg_text):
    """Tag counts inside the drawing group, ignoring <defs>."""
    root = ET.fromstring(svg_text)
    group = root.find(f"{SVG_NS}g")
    assert group is not None
    counts = {}
    for element in group.iter():
        tag = element.tag.removeprefix(SVG_NS)
        counts[tag] = counts.get(tag, 0) + 1
    counts.pop("g", None)
    return counts


def parse_points(attr):
    pairs = attr.strip().split()
    return [tuple(float(v) for v in pair.split(",")) for pair in pairs]


def polygon_shoelace(coords):
    total = 0.0
    for i in range(len(coords)):
        x1, y1 = coords[i]
        x2, y2 = coords[(i + 1) % len(coords)]
        total += x1 * y2 - x2 * y1
    return total / 2.0


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("t", TRIANGLES.values(), ids=TRIANGLES.keys())
    def test_repeat_renders_identical(self, kind, t):
        first = render(construction(kind, t), FigureSpec(kind=kind))
        second = render(construction(kind, t), FigureSpec(kind=kind))
        assert first == second

    def test_output_is_well_formed_xml(self):
        for kind in KINDS:
            svg = render(construction(kind, OBTUSE), FigureSpec(kind=kind))
            root = ET.fromstring(svg)
            assert root.tag == f"{SVG_NS}svg"

    def test_no_non_finite_values(self):
        for kind in KINDS:
            svg = render(construction(kind, OBTUSE), FigureSpec(kind=kind))
            assert "nan" not in svg.lower()
            assert "inf" not in svg.lower()

    @pytest.mark.parametrize("kind", [kind for kind in KINDS if kind != "circumcircle"])
    def test_label_beside_a_subnormal_offset(self, kind):
        # A lies 7e-321 above the centroid of this flat triangle, so amount /
        # length overflows: the label, once (nan, inf) and refused, is set
        # 0.07 of the diagonal straight above A. (Its circumcentre is beyond
        # the float range.)
        svg = render(construction(kind, Triangle(Point(0.5, 1e-320), Point(0, 0), Point(1, 0))),
                     FigureSpec(kind=kind))
        assert "nan" not in svg.lower() and "inf" not in svg.lower()
        x, y = re.search(r'translate\((\S+) (\S+)\)[^>]*>A<', svg).groups()
        assert x == "0.500000" and float(y) > 0.05


# The figures demos/draw_figures.py writes, with the specs it uses.
DEMO_OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"
DEMO_FIGURES = {
    **{f"{kind}.svg": FigureSpec(kind=kind) for kind in KINDS},
    "cuoco_pairs_compact.svg": FigureSpec(kind="cuoco_pairs", labels=False, precision=3),
}


@pytest.mark.parametrize("name", sorted(DEMO_FIGURES))
def test_demo_figures_match_committed_files(name):
    spec = DEMO_FIGURES[name]
    svg = render(construction(spec.kind, OBTUSE), spec)
    assert svg.encode("utf-8") == (DEMO_OUTPUT / name).read_bytes()


def test_renders_match_pinned_digest():
    # 46 triangles x 6 kinds x labels on and off x 4 precisions: 2 208 SVGs,
    # hashed in that loop order. A change to any byte of any of them shows.
    rng = random.Random(2024)
    shapes = [(1, 1, 1), (3, 4, 5), (2, 3, 4), (5, 3, 4), (2.5, 3.25, 4.75), (1, 1, 1.9)]
    triangles = [random_triangle(rng) for _ in range(40)]
    triangles += [triangle_from_sides(*sides) for sides in shapes]
    digest = hashlib.sha256()
    for t in triangles:
        for kind in KINDS:
            data = construction(kind, t)
            for labels in (True, False):
                for precision in (1, 3, 6, 12):
                    digest.update(render(data, FigureSpec(kind, labels, precision)).encode("utf-8"))
    assert digest.hexdigest() == "baa6c4b0a55979a1785a8904cd0a45ae014bda196218f99639b5e7734f152957"


# Numbers the sheet formats: any float (-0.0, subnormals, 1e300 and the
# infinities among them), dyadic fractions, some of them exact ties at a
# rounding digit, the floats nearest a decimal half at a rounding digit,
# ints past 2**53 and Fractions.
NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308]),
    st.builds(lambda m, k: m / 2**k, st.integers(-2**40, 2**40), st.integers(1, 40)),
    st.builds(lambda m, k: (2 * m + 1) / (2 * 10**k), st.integers(-10**6, 10**6), st.integers(1, 12)),
    st.integers(2**53, 2**1000).flatmap(lambda n: st.sampled_from([n, -n])),
    st.fractions(),
)


def formatters(precision: int):
    """The sheet's formatter for one number and for one point, x then y."""
    sheet = _Sheet(FigureSpec("cuoco", precision=precision), (Point(0, 0), Point(1, 1)))
    return sheet.fmt, lambda x, y: sheet._coords((_point(x, y),), " ", "")


@given(value=NUMBERS, other=NUMBERS, precision=st.integers(1, 12))
def test_sheet_formats_as_the_float_f_string(value, other, precision):
    number, point = formatters(precision)
    expected = f"{float(value):.{precision}f}"
    assert number(value) == expected
    assert point(value, other) == f"{expected} {float(other):.{precision}f}"


@pytest.mark.parametrize("value", [10**400, -2**1024, Fraction(10**400, 3)])
def test_sheet_formatter_overflows_as_float_does(value):
    number, point = formatters(6)
    with pytest.raises(OverflowError):
        f"{float(value):.6f}"
    for call in (lambda: number(value), lambda: point(value, 0), lambda: point(0, value)):
        with pytest.raises(OverflowError):
            call()


def test_exact_coordinates_are_covered_as_floats():
    # Every x of this integer triangle, and of its squares and circle, is
    # the float 1e300, as an int, plus at most about 3e10, and rounds to
    # that float. So the drawing has no width of its own: its viewBox is
    # two margins wide, 0.1 of the drawing's height, and 1.1 of it high.
    far = int(1e300)
    t = Triangle(Point(far, 0), Point(far + 10**10, 0), Point(far, 10**10))
    for kind in ("euclid_defect", "cuoco", "cuoco_pairs", "circumcircle"):
        svg = render(construction(kind, t), FigureSpec(kind))
        _, _, width, height = (float(v) for v in ET.fromstring(svg).attrib["viewBox"].split())
        assert width == pytest.approx(height / 11), kind


class TestStructure:
    EXPECTED = {
        "euclid_defect": {"path": 0, "polygon": 2, "line": 1, "circle": 0, "text": 4},
        "cuoco": {"path": 3, "polygon": 7, "line": 3, "circle": 0, "text": 9},
        "cuoco_pairs": {"path": 3, "polygon": 7, "line": 3, "circle": 0, "text": 9},
        "cuoco_obtuse": {"path": 3, "polygon": 7, "line": 3, "circle": 0, "text": 9},
        "incircle": {"path": 0, "polygon": 1, "line": 0, "circle": 5, "text": 7},
        "circumcircle": {"path": 0, "polygon": 1, "line": 3, "circle": 2, "text": 4},
    }

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("t", TRIANGLES.values(), ids=TRIANGLES.keys())
    def test_element_counts(self, kind, t):
        svg = render(construction(kind, t), FigureSpec(kind=kind))
        counts = content_counts(svg)
        for tag, expected in self.EXPECTED[kind].items():
            assert counts.get(tag, 0) == expected, (kind, tag)

    def test_single_flip_group(self):
        svg = render(construction("cuoco", OBTUSE), FigureSpec(kind="cuoco"))
        assert svg.count('<g transform="scale(1 -1)">') == 1

    def test_viewbox_covers_triangle(self):
        for kind in KINDS:
            svg = render(construction(kind, OBTUSE), FigureSpec(kind=kind))
            root = ET.fromstring(svg)
            vx, vy, vw, vh = (float(v) for v in root.attrib["viewBox"].split())
            for p in (OBTUSE.A, OBTUSE.B, OBTUSE.C):
                # Drawing is mirrored vertically, so y appears as -y.
                assert vx <= p.x <= vx + vw
                assert vy <= -p.y <= vy + vh

    @pytest.mark.parametrize("kind", ["cuoco", "cuoco_obtuse"])
    def test_negative_panels_hatched(self, kind):
        svg = render(construction(kind, OBTUSE), FigureSpec(kind=kind))
        root = ET.fromstring(svg)
        group = root.find(f"{SVG_NS}g")
        negatives = {
            el.attrib["class"].split()[1]
            for el in group.iter(f"{SVG_NS}polygon")
            if "negative" in el.attrib.get("class", "")
        }
        assert negatives == {"panel-R1", "panel-R2"}
        for el in group.iter(f"{SVG_NS}polygon"):
            if "negative" in el.attrib.get("class", ""):
                assert el.attrib["fill"] == "url(#hatch)"

    def test_oversized_panels_dashed_only_in_obtuse_kind(self):
        def dashed_panels(kind):
            svg = render(construction(kind, OBTUSE), FigureSpec(kind=kind))
            group = ET.fromstring(svg).find(f"{SVG_NS}g")
            return {
                el.attrib["class"].split()[1]
                for el in group.iter(f"{SVG_NS}polygon")
                if "stroke-dasharray" in el.attrib
            }

        assert dashed_panels("cuoco_obtuse") == {"panel-S1", "panel-T2"}
        assert dashed_panels("cuoco") == set()

    def test_labels_can_be_disabled(self):
        spec = FigureSpec(kind="cuoco", labels=False)
        svg = render(construction("cuoco", OBTUSE), spec)
        assert content_counts(svg).get("text", 0) == 0


class TestAreaRecovery:
    @pytest.mark.parametrize("t", TRIANGLES.values(), ids=TRIANGLES.keys())
    def test_panel_areas_survive_rounding(self, t):
        precision = 6
        d = construction("cuoco", t)
        svg = render(d, FigureSpec(kind="cuoco", precision=precision))
        group = ET.fromstring(svg).find(f"{SVG_NS}g")
        m = d.metrics
        scale = max(1.0, m.a**2, m.b**2, m.c**2)
        tol = 10.0 ** (1 - precision) * scale
        recovered = {}
        for el in group.iter(f"{SVG_NS}polygon"):
            classes = el.attrib.get("class", "").split()
            if classes and classes[0] == "panel":
                label = classes[1].removeprefix("panel-")
                recovered[label] = polygon_shoelace(parse_points(el.attrib["points"]))
        assert len(recovered) == 6
        for panel in d.panels:
            assert abs(recovered[panel.label] - panel.signed_area) <= tol


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FigureSpec(kind="pie_chart")
        with pytest.raises(ValueError):
            construction("pie_chart", OBTUSE)

    @pytest.mark.parametrize("precision", [0, -1, 13, True])
    def test_precision_out_of_range(self, precision):
        with pytest.raises(ValueError):
            FigureSpec(kind="cuoco", precision=precision)

    @pytest.mark.parametrize("labels", ["false", None, 1])
    def test_labels_must_be_bool(self, labels):
        with pytest.raises(ValueError, match="labels must be a bool"):
            FigureSpec(kind="cuoco", labels=labels)

    @pytest.mark.parametrize("kind", KINDS)
    def test_drawing_too_small_for_precision_rejected(self, kind):
        # At precision 6 every coordinate of this triangle prints as 0.000000,
        # and a zero-size viewBox would render nothing.
        data = construction(kind, triangle_from_sides(1e-7, 1e-7, 1e-7))
        with pytest.raises(ValueError, match="prints as zero at precision 6"):
            render(data, FigureSpec(kind=kind))
        svg = render(data, FigureSpec(kind=kind, precision=12))
        _, _, width, height = (float(v) for v in ET.fromstring(svg).attrib["viewBox"].split())
        assert width > 0 and height > 0

    def test_precision_controls_decimals(self):
        svg = render(construction("cuoco", OBTUSE), FigureSpec(kind="cuoco", precision=3))
        group = ET.fromstring(svg).find(f"{SVG_NS}g")
        for el in group.iter(f"{SVG_NS}polygon"):
            for token in el.attrib["points"].replace(",", " ").split():
                assert re.fullmatch(r"-?\d+\.\d{3}", token), token

    def test_wrong_data_type_rejected(self):
        with pytest.raises(KindMismatch):
            render(OBTUSE, FigureSpec(kind="cuoco"))
        with pytest.raises(KindMismatch):
            render(build(OBTUSE), FigureSpec(kind="incircle"))
        with pytest.raises(KindMismatch):
            render(incircle(OBTUSE), FigureSpec(kind="circumcircle"))


BUILDERS = [
    ("cuoco", decomposition, "build"),
    ("cuoco_pairs", decomposition, "build"),
    ("cuoco_obtuse", decomposition, "build"),
    ("incircle", circles, "incircle"),
    ("circumcircle", circles, "circumcircle"),
]


@pytest.mark.parametrize("kind, module, name", BUILDERS, ids=[kind for kind, _, _ in BUILDERS])
def test_builder_calls_through_its_module(monkeypatch, kind, module, name):
    # A wrapper later bound to the module attribute, as a tracer binds one,
    # sees the kind table's call; a builder held by value would bypass it.
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda t: calls.append(t) or original(t))
    construction(kind, OBTUSE)
    assert calls == [OBTUSE]
