import math

import pytest
from hypothesis import given, settings

from cuoco.decomposition import (
    HOSTED_PANELS,
    PANEL_LABELS,
    SIDE_FRAMES,
    _finite_quad_areas,
    _quad_areas,
    build,
    derive_cosine_theorem,
    panel_area_exact,
    panel_area_trig,
    shoelace,
    similarity_check,
)
from cuoco.checks import rows
from cuoco.geometry import (
    cross,
    dot,
    foot_of_altitude,
    NonFiniteCoordinate,
    Point,
    Triangle,
    triangle_from_sides,
)

from conftest import float_triangles, integer_triangles


# Far from the origin: the triangle's own sizes are finite, but the cross
# products of absolute quad coordinates (about 1e320) are not.
FAR_OUT = Triangle(Point(1e160, 0), Point(1.00000000000001e160, 0), Point(1e160, 1e150))


def point_in_convex_quad(pt, quad, slack):
    """True if pt lies inside (or within slack of) a counterclockwise quad."""
    for i in range(4):
        a = quad[i]
        b = quad[(i + 1) % 4]
        if cross(b - a, pt - a) < -slack:
            return False
    return True


def panel_contained_in_host(panel, square, slack):
    return all(point_in_convex_quad(pt, square.vertices, slack) for pt in panel.quad)


def by_label(d):
    """The panels of d by label, and its squares by side."""
    return dict(zip(PANEL_LABELS, d.panels)), dict(zip(SIDE_FRAMES, d.squares))


def pair_equivalence_row(t):
    """The catalogue's pair_equivalence record: (residual, scale, quad areas)."""
    for check, _, residual, scale, detail in rows(t):
        if check == "pair_equivalence":
            return residual, scale, detail


class TestBuild:
    def test_obtuse_pair_areas_frozen(self):
        d = build(triangle_from_sides(2.0, 3.0, 4.0))
        assert d.pair_areas.R == pytest.approx(-1.5, abs=1e-12)
        assert d.pair_areas.S == pytest.approx(10.5, abs=1e-12)
        assert d.pair_areas.T == pytest.approx(5.5, abs=1e-12)

    def test_right_triangle_pair_areas_frozen(self):
        d = build(triangle_from_sides(3.0, 4.0, 5.0))
        assert d.pair_areas.R == pytest.approx(0.0, abs=1e-12)
        assert d.pair_areas.S == pytest.approx(16.0, abs=1e-12)
        assert d.pair_areas.T == pytest.approx(9.0, abs=1e-12)

    def test_equilateral_panels_all_equal(self):
        d = build(triangle_from_sides(1.0, 1.0, 1.0))
        for panel in d.panels:
            assert panel.signed_area == pytest.approx(0.5, rel=1e-12)

    def test_panels_sorted_and_hosted_as_documented(self):
        d = build(triangle_from_sides(2.0, 3.0, 4.0))
        assert tuple(p.label for p in d.panels) == tuple(sorted(PANEL_LABELS))
        panels, _ = by_label(d)
        for side, labels in HOSTED_PANELS.items():
            for label in labels:
                assert panels[label].host == side

    def test_panels_of_same_pair_share_area(self, fuzz_triangles):
        for t in fuzz_triangles[:300]:
            panels, _ = by_label(build(t))
            for first, second in (("R1", "R2"), ("S1", "S2"), ("T1", "T2")):
                a = panels[first].signed_area
                b = panels[second].signed_area
                assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(a)))

    def test_pair_plus_pair_recovers_squares(self, fuzz_triangles):
        for t in fuzz_triangles[:300]:
            d = build(t)
            m = d.metrics
            areas = d.pair_areas
            scale = max(1.0, m.a**2, m.b**2, m.c**2)
            assert abs(areas.R + areas.T - m.a**2) <= 1e-9 * scale
            assert abs(areas.R + areas.S - m.b**2) <= 1e-9 * scale
            assert abs(areas.S + areas.T - m.c**2) <= 1e-9 * scale


class TestSquares:
    @settings(max_examples=200)
    @given(float_triangles())
    def test_square_geometry(self, t):
        d = build(t)
        for square in d.squares:
            p_name, q_name, v_name = SIDE_FRAMES[square.side]
            p = getattr(t, p_name)
            q = getattr(t, q_name)
            v = getattr(t, v_name)
            verts = square.vertices
            side_sq = dot(p - q, p - q)
            # First two vertices are the side endpoints.
            assert verts[0] == q and verts[1] == p
            # Counterclockwise with area exactly the squared side.
            assert shoelace(verts) == pytest.approx(side_sq, rel=1e-9)
            # All four edges have the side's length.
            for i in range(4):
                edge = verts[(i + 1) % 4] - verts[i]
                assert dot(edge, edge) == pytest.approx(side_sq, rel=1e-9)
            # The two new corners lie strictly opposite the triangle.
            for corner in verts[2:]:
                side_of_v = cross(p - q, v - q)
                side_of_corner = cross(p - q, corner - q)
                assert side_of_v * side_of_corner < 0


class TestPanels:
    def test_right_triangle_degenerate_panels(self):
        panels, _ = by_label(build(triangle_from_sides(3.0, 4.0, 5.0)))
        for label in ("R1", "R2"):
            panel = panels[label]
            assert panel.signed_area == pytest.approx(0.0, abs=1e-9)
            width = panel.quad[1] - panel.quad[0]
            assert math.hypot(width.x, width.y) <= 1e-9

    def test_negative_panels_in_obtuse_triangle(self):
        d = build(triangle_from_sides(2.0, 3.0, 4.0))
        negatives = {p.label for p in d.panels if p.signed_area < 0}
        assert negatives == {"R1", "R2"}

    @settings(max_examples=200)
    @given(float_triangles())
    def test_quad_shoelace_matches_signed_area(self, t):
        d = build(t)
        m = d.metrics
        scale = max(1.0, m.a**2, m.b**2, m.c**2)
        for panel in d.panels:
            assert abs(shoelace(panel.quad) - panel.signed_area) <= 1e-9 * scale

    @settings(max_examples=200)
    @given(float_triangles())
    def test_panels_tile_their_square(self, t):
        # The two panels of one square always add up to the full square,
        # whether or not the altitude foot lands inside the side.
        d = build(t)
        m = d.metrics
        side_sq = {"a": m.a**2, "b": m.b**2, "c": m.c**2}
        scale = max(1.0, *side_sq.values())
        panels, _ = by_label(d)
        for side, labels in HOSTED_PANELS.items():
            total = sum(panels[label].signed_area for label in labels)
            assert abs(total - side_sq[side]) <= 1e-9 * scale


class TestContainment:
    def test_acute_triangle_panels_contained(self):
        t = triangle_from_sides(6.0, 7.0, 8.0)
        d = build(t)
        slack = 1e-9 * max(1.0, d.metrics.c**2)
        _, squares = by_label(d)
        for panel in d.panels:
            assert panel_contained_in_host(panel, squares[panel.host], slack)

    def test_obtuse_triangle_spills_two_squares(self):
        t = triangle_from_sides(2.0, 3.0, 4.0)
        d = build(t)
        slack = 1e-9 * max(1.0, d.metrics.c**2)
        _, squares = by_label(d)
        contained = {
            p.label
            for p in d.panels
            if panel_contained_in_host(p, squares[p.host], slack)
        }
        # The obtuse corner is opposite side c, whose altitude foot stays
        # inside the side; the feet on sides a and b fall outside, so all
        # four of those panels overhang their squares.
        assert contained == {"S2", "T1"}

    @settings(max_examples=200)
    @given(float_triangles())
    def test_containment_iff_foot_inside_side(self, t):
        d = build(t)
        m = d.metrics
        side_sq = {"a": m.a**2, "b": m.b**2, "c": m.c**2}
        panels, squares = by_label(d)
        for side, labels in HOSTED_PANELS.items():
            # Slack in the host square's own units: a foot 1e-6 of a short
            # side outside it must not pass as inside by a long side's slack.
            slack = 1e-9 * side_sq[side]
            _, _, v_name = SIDE_FRAMES[side]
            _, param = foot_of_altitude(t, from_vertex=v_name)
            if min(abs(param), abs(1.0 - param)) < 1e-6:
                continue  # foot too close to an endpoint to call either way
            expected = 0.0 < param < 1.0
            for label in labels:
                actual = panel_contained_in_host(panels[label], squares[side], slack)
                assert actual == expected


class TestExactIntegerAreas:
    @settings(max_examples=300)
    @given(integer_triangles())
    def test_pair_sums_are_exact(self, t):
        r = panel_area_exact("R", t)
        s = panel_area_exact("S", t)
        u = panel_area_exact("T", t)
        assert isinstance(r, int) and isinstance(s, int) and isinstance(u, int)
        a_sq = dot(t.B - t.C, t.B - t.C)
        b_sq = dot(t.C - t.A, t.C - t.A)
        c_sq = dot(t.A - t.B, t.A - t.B)
        assert r + u == a_sq
        assert r + s == b_sq
        assert s + u == c_sq

    def test_trig_path_agrees_with_exact(self, fuzz_triangles):
        for t in fuzz_triangles[:300]:
            m = t.metrics
            scale = max(1.0, m.a**2, m.b**2, m.c**2)
            for pair in ("R", "S", "T"):
                exact = panel_area_exact(pair, t)
                trig = panel_area_trig(pair, m)
                assert abs(exact - trig) <= 1e-9 * scale


class TestVerifyPairs:
    """The catalogue's pair_equivalence check: each pair's two quads by
    shoelace area."""

    def test_passes_including_obtuse(self, fuzz_triangles):
        kinds = set()
        for t in fuzz_triangles[:400]:
            residual, scale, _ = pair_equivalence_row(t)
            assert residual <= 1e-9 * scale
            kinds.add(t.metrics.classification.kind)
        assert "obtuse" in kinds and "acute" in kinds

    def test_reports_three_pairs(self):
        _, scale, quads = pair_equivalence_row(triangle_from_sides(2.0, 3.0, 4.0))
        assert scale == 16.0
        assert quads == pytest.approx([-1.5, -1.5, 10.5, 10.5, 5.5, 5.5], abs=1e-12)

    def test_quad_areas_are_shoelace_bit_for_bit(self, fuzz_triangles):
        triangles = [*fuzz_triangles[:200], triangle_from_sides(3, 4, 5),
                     Triangle(Point(3, 4), Point(0, 0), Point(3, 0))]
        for t in triangles:
            _, _, quads = pair_equivalence_row(t)  # hex() tells 0.0 from -0.0
            assert [area.hex() for area in quads] == [shoelace(p.quad).hex() for p in build(t).panels]

    def test_overflowing_quad_areas_raise(self):
        with pytest.raises(NonFiniteCoordinate, match="panel quad areas"):
            _finite_quad_areas(FAR_OUT)
        with pytest.raises(NonFiniteCoordinate, match="panel quad areas"):
            pair_equivalence_row(FAR_OUT)


def assert_frame_areas_are_the_figures(t):
    """The areas the checks compute from the triangle's frame are the
    shoelace areas of the quads build(t) draws, bit for bit: hex() tells
    0.0 from -0.0."""
    drawn = [shoelace(panel.quad).hex() for panel in build(t).panels]
    assert [area.hex() for area in _quad_areas(t)] == drawn


class TestFrameAreas:
    @settings(max_examples=300)
    @given(integer_triangles())
    def test_lattice_triangles(self, t):
        assert_frame_areas_are_the_figures(t)

    @settings(max_examples=300)
    @given(float_triangles())
    def test_float_triangles(self, t):
        assert_frame_areas_are_the_figures(t)

    @settings(max_examples=200)
    @given(float_triangles())
    def test_clockwise_input(self, t):
        # The mirror image of a stored (counterclockwise) triangle winds
        # clockwise, so Triangle swaps its B and C.
        mirrored = Triangle(*(Point(-v.x, v.y) for v in (t.A, t.B, t.C)))
        assert mirrored.B == Point(-t.C.x, t.C.y)
        assert_frame_areas_are_the_figures(mirrored)

    @pytest.mark.parametrize("t", [triangle_from_sides(3, 4, 5), triangle_from_sides(5, 3, 4),
                                   Triangle(Point(3, 4), Point(0, 0), Point(3, 0))])
    def test_right_angles(self, t):
        assert_frame_areas_are_the_figures(t)


class TestSimilarityCheck:
    def test_frozen_obtuse_values(self):
        t = triangle_from_sides(2.0, 3.0, 4.0)
        report = similarity_check(t, at_vertex="C")
        assert report.ch == pytest.approx(-0.75, rel=1e-12)
        assert report.ck == pytest.approx(-0.5, rel=1e-12)
        assert abs(report.residual) <= 1e-9 * report.scale

    @settings(max_examples=200)
    @given(float_triangles())
    def test_residual_vanishes_everywhere(self, t):
        for vertex in ("A", "B", "C"):
            report = similarity_check(t, at_vertex=vertex)
            assert abs(report.residual) <= 1e-9 * report.scale


class TestDerivation:
    def test_every_step_equals_a_squared(self):
        trace = derive_cosine_theorem(build(triangle_from_sides(2.0, 3.0, 4.0)))
        assert trace.steps[0].expression == "a^2"
        assert all(step.value == pytest.approx(4.0, abs=1e-12) for step in trace.steps)
        assert trace.max_deviation <= 1e-9 * 16.0
        assert abs(trace.residual) <= 1e-9 * 16.0

    def test_right_triangle_reduces_to_pythagoras(self):
        trace = derive_cosine_theorem(build(triangle_from_sides(3.0, 4.0, 5.0)))
        values = [step.value for step in trace.steps]
        assert values[0] == pytest.approx(9.0, rel=1e-12)
        assert max(values) - min(values) <= 1e-9 * 25.0

    def test_nan_step_is_the_max_deviation(self):
        # The quad steps are inf - inf; max() would keep the 0.0 of step one.
        trace = derive_cosine_theorem(build(FAR_OUT))
        assert any(math.isnan(step.value) for step in trace.steps)
        assert math.isnan(trace.max_deviation)

    def test_holds_over_random_triangles(self, fuzz_triangles):
        for t in fuzz_triangles[:300]:
            d = build(t)
            m = d.metrics
            scale = max(1.0, m.a**2, m.b**2, m.c**2)
            trace = derive_cosine_theorem(d)
            assert trace.max_deviation <= 1e-9 * scale


class TestShoelace:
    def test_unit_square(self):
        square = (Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1))
        assert shoelace(square) == pytest.approx(1.0, rel=1e-15)

    def test_orientation_flips_sign(self):
        square = (Point(0, 1), Point(1, 1), Point(1, 0), Point(0, 0))
        assert shoelace(square) == pytest.approx(-1.0, rel=1e-15)
