import math

import pytest
from hypothesis import given, settings

from cuoco.circles import (
    SIDE_ENDPOINTS,
    circumcircle,
    incircle,
)
from cuoco.geometry import (
    cross,
    distance,
    dot,
    NonFiniteCoordinate,
    Point,
    Triangle,
    triangle_from_sides,
    VERTICES,
)

from conftest import circumcentre_budget, float_triangles


def distance_to_line(point, p, q):
    return abs(cross(q - p, point - p)) / distance(p, q)


def closed_splits(m):
    """The splits in closed form: at v toward w, pi/2 minus the third angle."""
    angle = {"A": m.alpha, "B": m.beta, "C": m.gamma}
    return {v: {w: math.pi / 2.0 - angle[(set(VERTICES) - {v, w}).pop()]
                for w in VERTICES if w != v}
            for v in VERTICES}


class TestIncircle:
    def test_3_4_5_frozen(self):
        t = triangle_from_sides(3.0, 4.0, 5.0)
        data = incircle(t)
        assert data.radius == pytest.approx(1.0, rel=1e-12)
        assert data.center.x == pytest.approx(2.0, abs=1e-12)
        assert data.center.y == pytest.approx(1.0, abs=1e-12)
        assert data.tangent_lengths["A"] == pytest.approx(3.0, rel=1e-12)
        assert data.tangent_lengths["B"] == pytest.approx(2.0, rel=1e-12)
        assert data.tangent_lengths["C"] == pytest.approx(1.0, rel=1e-12)

    def test_equilateral_radius(self):
        data = incircle(triangle_from_sides(2.0, 2.0, 2.0))
        assert data.radius == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    @settings(max_examples=200)
    @given(float_triangles())
    def test_center_equidistant_from_sides(self, t):
        data = incircle(t)
        for side, (p_name, q_name) in SIDE_ENDPOINTS.items():
            p = getattr(t, p_name)
            q = getattr(t, q_name)
            dist = distance_to_line(data.center, p, q)
            assert abs(dist - data.radius) <= 1e-9 * max(1.0, data.radius)

    @settings(max_examples=200)
    @given(float_triangles())
    def test_tangent_points_on_their_sides(self, t):
        data = incircle(t)
        for side, (p_name, q_name) in SIDE_ENDPOINTS.items():
            p = getattr(t, p_name)
            q = getattr(t, q_name)
            tp = data.tangent_points[side]
            side_len = distance(p, q)
            # On the carrier line, strictly between the endpoints.
            assert distance_to_line(tp, p, q) <= 1e-9 * max(1.0, side_len)
            param = dot(tp - p, q - p) / dot(q - p, q - p)
            assert 0.0 < param < 1.0
            # Touches the circle: the tangent point sits at radius distance.
            assert distance(data.center, tp) == pytest.approx(data.radius, rel=1e-9)

    @settings(max_examples=100)
    @given(float_triangles())
    def test_tangent_params_locate_tangent_points(self, t):
        data = incircle(t)
        for side, (p_name, q_name) in SIDE_ENDPOINTS.items():
            p = getattr(t, p_name)
            q = getattr(t, q_name)
            tparam = data.tangent_params[side]
            located = p + Point(tparam * (q.x - p.x), tparam * (q.y - p.y))
            assert distance(located, data.tangent_points[side]) <= 1e-12 * max(1.0, distance(p, q))

    def test_measured_lengths_match_closed_form(self, fuzz_triangles):
        for t in fuzz_triangles[:300]:
            m = t.metrics
            closed = {
                "A": m.s - m.a,
                "B": m.s - m.b,
                "C": m.s - m.c,
            }
            data = incircle(t)
            for v in VERTICES:
                scale = max(1.0, closed[v])
                assert abs(data.tangent_lengths[v] - closed[v]) <= 1e-9 * scale

    def test_adjacent_tangent_lengths_sum_to_sides(self, fuzz_triangles):
        for t in fuzz_triangles[:300]:
            m = t.metrics
            lengths = incircle(t).tangent_lengths
            sides = {"a": m.a, "b": m.b, "c": m.c}
            for side, (p_name, q_name) in SIDE_ENDPOINTS.items():
                total = lengths[p_name] + lengths[q_name]
                assert abs(total - sides[side]) <= 1e-9 * max(1.0, sides[side])


class TestCircumcircle:
    def test_3_4_5_frozen(self):
        data = circumcircle(triangle_from_sides(3.0, 4.0, 5.0))
        assert data.center.x == pytest.approx(1.5, abs=1e-12)
        assert data.center.y == pytest.approx(2.0, abs=1e-12)
        assert data.radius == pytest.approx(2.5, rel=1e-12)

    def test_equilateral_radius(self):
        data = circumcircle(triangle_from_sides(1.0, 1.0, 1.0))
        assert data.radius == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    @settings(max_examples=200)
    @given(float_triangles())
    def test_center_equidistant_from_vertices(self, t):
        data = circumcircle(t)
        for name in VERTICES:
            d = distance(data.center, getattr(t, name))
            assert abs(d - data.radius) <= 1e-9 * max(1.0, data.radius)

    def test_center_leaves_obtuse_triangle(self):
        t = triangle_from_sides(2.0, 3.0, 4.0)
        data = circumcircle(t)
        # For a counterclockwise triangle, an interior point is left of all
        # three directed edges; the circumcenter of an obtuse triangle is not.
        edges = ((t.A, t.B), (t.B, t.C), (t.C, t.A))
        sides = [cross(q - p, data.center - p) for p, q in edges]
        assert min(sides) < 0

    def test_center_inside_acute_triangle(self):
        t = triangle_from_sides(6.0, 7.0, 8.0)
        data = circumcircle(t)
        edges = ((t.A, t.B), (t.B, t.C), (t.C, t.A))
        sides = [cross(q - p, data.center - p) for p, q in edges]
        assert min(sides) > 0

    @pytest.mark.parametrize("measured", ["circumcircle", "vertex_splits"])
    def test_centre_equidistant_where_absolute_coordinates_failed(self, measured):
        # Valid triangles that a determinant of absolute coordinates
        # refused: a thin one far out, where it cancelled to zero, and a
        # large one at the origin, where its products overflowed. The
        # centre is equidistant from the vertices, and the splits, measured
        # from its unrounded offset from A, match the closed form (from the
        # rounded centre they were off by 0.3 radians on the thin one).
        far_thin = Triangle(A=Point(190233263674.5445, 190233263674.5445),
                            B=Point(190233263674.54453, 190233263674.5445),
                            C=Point(190233263674.5445, 190233263674.5446))
        large = Triangle(A=Point(0, 0), B=Point(1e150, 0), C=Point(0, 1e150))
        for t in (far_thin, large):
            data = circumcircle(t)
            if measured == "vertex_splits":
                closed = closed_splits(t.metrics)
                for v, row in data.splits.items():
                    for w, value in row.items():
                        assert abs(value - closed[v][w]) <= 1e-9, (t, v, w)
                continue
            budget = circumcentre_budget(data.center, data.radius)
            for name in VERTICES:
                assert abs(distance(data.center, getattr(t, name)) - data.radius) <= budget

    def test_centre_beyond_float_range_rejected(self):
        # So flat that its scaled cross product underflows: the centre lies
        # about 2.5e322 below the base.
        t = Triangle(A=Point(0, 0), B=Point(1, 0), C=Point(0.5, 5e-324))
        with pytest.raises(NonFiniteCoordinate, match="circumcentre is not finite"):
            circumcircle(t)


class TestVertexSplits:
    def test_right_triangle_zero_split(self):
        t = triangle_from_sides(3.0, 4.0, 5.0)
        splits = circumcircle(t).splits
        # gamma is the right angle, so the split pi/2 - gamma vanishes; it
        # appears at both ends of side c (at A toward B and at B toward A).
        assert splits["A"]["B"] == pytest.approx(0.0, abs=1e-12)
        assert splits["B"]["A"] == pytest.approx(0.0, abs=1e-12)
        assert splits["A"]["C"] == pytest.approx(0.6435011087932844, abs=1e-12)

    def test_obtuse_triangle_negative_split(self):
        t = triangle_from_sides(2.0, 3.0, 4.0)
        splits = circumcircle(t).splits
        gamma = math.acos(-0.25)
        expected = math.pi / 2.0 - gamma
        assert splits["A"]["B"] == pytest.approx(expected, abs=1e-12)
        assert splits["A"]["B"] < 0

    def test_acute_triangle_all_positive(self):
        splits = circumcircle(triangle_from_sides(6.0, 7.0, 8.0)).splits
        for v, row in splits.items():
            for w, value in row.items():
                assert value > 0

    def test_symmetric_across_each_side(self, fuzz_triangles):
        for t in fuzz_triangles[:300]:
            splits = circumcircle(t).splits
            for v in VERTICES:
                for w in VERTICES:
                    if v != w:
                        assert abs(splits[v][w] - splits[w][v]) <= 1e-9

    def test_splits_sum_to_vertex_angles(self, fuzz_triangles):
        for t in fuzz_triangles[:300]:
            m = t.metrics
            angles = {"A": m.alpha, "B": m.beta, "C": m.gamma}
            splits = circumcircle(t).splits
            for v in VERTICES:
                total = sum(splits[v][w] for w in VERTICES if w != v)
                assert abs(total - angles[v]) <= 1e-9

    def test_matches_closed_form(self, fuzz_triangles):
        for t in fuzz_triangles[:300]:
            measured = circumcircle(t).splits
            closed = closed_splits(t.metrics)
            for v in VERTICES:
                for w in VERTICES:
                    if v != w:
                        assert abs(measured[v][w] - closed[v][w]) <= 1e-9
