import copy
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cuoco import geometry
from cuoco.cli import random_triangle
from cuoco.cosine_law import euclid_defect
from cuoco.decomposition import similarity_check
from cuoco.geometry import (
    Classification,
    GeometryError,
    OPPOSITE_SIDE,
    CollinearPoints,
    cross,
    distance,
    dot,
    foot_of_altitude,
    NonPositiveSide,
    Point,
    Triangle,
    triangle_from_sides,
    TriangleInequalityViolated,
)

from conftest import float_triangles, integer_triangles, run_script, side_triples, tree_copy
from test_cli import PINNED_VERIFY_INPUTS


class TestPoint:
    def test_preserves_integer_coordinates(self):
        p = Point(2, -3)
        assert isinstance(p.x, int) and isinstance(p.y, int)
        q = p + Point(1, 1)
        assert isinstance(q.x, int) and isinstance(q.y, int)

    def test_arithmetic(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)
        assert Point(1, 2) - Point(3, 4) == Point(-2, -2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Point(bad, 0.0)
        with pytest.raises(ValueError):
            Point(0.0, bad)

    def test_dot_cross(self):
        assert dot(Point(1, 2), Point(3, 4)) == 11
        assert cross(Point(1, 0), Point(0, 1)) == 1
        assert cross(Point(0, 1), Point(1, 0)) == -1

    def test_distance(self):
        assert distance(Point(0, 0), Point(3, 4)) == 5.0


class TestTriangle:
    def test_counterclockwise_input_kept(self):
        t = Triangle(A=Point(0, 0), B=Point(1, 0), C=Point(0, 1))
        assert (t.A, t.B, t.C) == (Point(0, 0), Point(1, 0), Point(0, 1))
        assert t.twice_area == 1

    def test_clockwise_input_relabeled(self):
        t = Triangle(A=Point(0, 0), B=Point(0, 1), C=Point(1, 0))
        # Same point set, winding repaired by swapping B and C.
        assert t.A == Point(0, 0)
        assert t.B == Point(1, 0)
        assert t.C == Point(0, 1)
        assert t.twice_area > 0

    def test_collinear_rejected(self):
        with pytest.raises(CollinearPoints):
            Triangle(A=Point(0, 0), B=Point(1, 1), C=Point(3, 3))

    def test_underflowing_squared_side_rejected(self):
        # The cross product 1e-160 is representable, but |AB|^2 = 1e-340 is not:
        # the feet and the side cosines would divide by zero.
        with pytest.raises(GeometryError, match="squared side .* underflows to zero"):
            Triangle(A=Point(0, 0), B=Point(1e-170, 0), C=Point(0, 1e10))

    def test_underflowing_side_length_rejected(self):
        # Exact squared sides of about 1e-800 are nonzero Fractions, but their
        # float square roots are 0.0: the side cosines would divide by zero.
        tiny = Fraction(1, 10**400)
        with pytest.raises(GeometryError, match="a side length of .* underflows to zero"):
            Triangle(A=Point(tiny, 0), B=Point(3 * tiny, 0), C=Point(0, tiny))


class TestLayout:
    def test_the_declaration_names_each_value_once(self):
        assert len(set(geometry.FIELDS)) == len(geometry.FIELDS) == 128
        # One value per name in the frame of an int, a float and a Fraction triangle.
        for vertices in ((0, 0, 3, 0, 0, 4), (0.3, 0.1, 1.7, 0.2, 0.4, 2.9),
                         (Fraction(1, 3), Fraction(-2, 7), Fraction(9, 2), 0, 0, Fraction(11, 3))):
            assert len(geometry._frame(*vertices)) == len(geometry.FIELDS), vertices
        # Each group's constant spans exactly its own names, in order.
        for group, names in geometry.LAYOUT.items():
            where = getattr(geometry, group)
            spanned = geometry.FIELDS[where] if isinstance(where, slice) else (geometry.FIELDS[where],)
            assert spanned == tuple(names.split()), group

    def test_a_getter_of_an_unknown_name_fails_at_import(self, tmp_path):
        with pytest.raises(KeyError, match="deviation_5"):
            geometry.frame_getter("a deviation_5")
        # The catalogue's getter is made when cuoco.checks is imported.
        root = tree_copy(tmp_path, ("checks.py", "deviation_4\")", "deviation_5\")"))
        result = run_script(root, "import cuoco.checks")
        assert result.returncode == 1 and "KeyError: 'deviation_5'" in result.stderr

    def test_a_value_inserted_at_the_front_changes_no_output(self, tmp_path):
        # The frame gains a first value, declared as a group of its own, and
        # nothing outside the declaration and _frame's return changes: every
        # reader reads by name, so every command prints the same bytes, and
        # copied and pickled metrics, which carry the frame, read the same.
        root = tree_copy(
            tmp_path,
            ("geometry.py", "LAYOUT = {\n", 'LAYOUT = {\n    "PADDING": "padding",\n'),
            ("geometry.py", "(SIDES, ANGLES, ", "(PADDING, SIDES, ANGLES, "),
            ("geometry.py", "    return (a, b, c, ", "    return (-1.0, a, b, c, "))
        argvs = [["fuzz", "--count", "200", "--seed", "7"], ["verify", "--sides", "2,3,4"],
                 *(["verify", triangle] for triangle in PINNED_VERIFY_INPUTS[::3])]
        script = (
            "import contextlib, copy, io, pickle\n"
            "from cuoco import cli, geometry\n"
            "print(len(geometry._frame(0, 0, 3, 0, 0, 4)), geometry.SIDES)\n"
            "m = geometry.triangle_from_sides(2, 3, 4).metrics\n"
            "for rebuilt in (copy.copy(m), pickle.loads(pickle.dumps(m))):\n"
            "    print(repr((rebuilt == m, rebuilt.side_squares, rebuilt.area_scale,\n"
            "                rebuilt.length_scale, rebuilt.classification)))\n"
            f"for argv in {argvs!r}:\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        code = cli.main(argv)\n"
            "    print(repr((code, out.getvalue(), err.getvalue())))\n")
        package_root = Path(geometry.__file__).resolve().parent.parent
        edited, unedited = run_script(root, script), run_script(package_root, script)
        assert edited.returncode == unedited.returncode == 0, edited.stderr + unedited.stderr
        shape, _, outputs = edited.stdout.partition("\n")
        assert shape == "129 slice(1, 4, None)"
        assert unedited.stdout.partition("\n")[2] == outputs


def _same_number(x, y) -> bool:
    """Equal, and for floats also the same sign of zero."""
    return x == y and (not isinstance(x, float) or math.copysign(1.0, x) == math.copysign(1.0, y))


def _legs(t) -> dict:
    """Vertex V -> its two legs (P - V, Q - V) as Points, as t's frame holds them."""
    return {v: tuple(Point(*geometry.frame_getter(f"{v}{w}_x {v}{w}_y")(t.frame)) for w in (p, q))
            for v, (p, q) in OPPOSITE_SIDE.items()}


def _assert_legs_are_vertex_differences(t):
    stored_legs = _legs(t)
    for v, (p, q) in OPPOSITE_SIDE.items():
        stored = stored_legs[v]
        expected = (getattr(t, p) - getattr(t, v), getattr(t, q) - getattr(t, v))
        for leg, want in zip(stored, expected):
            assert _same_number(leg.x, want.x) and _same_number(leg.y, want.y), (v, leg, want)


SIGNED_ZERO_TRIANGLES = [
    # A and C share x = 3.0: C - A is (0.0, -4.0), while -(A - C) would be (-0.0, -4.0).
    triangle_from_sides(3, 4, 5),
    triangle_from_sides(5, 3, 4),
    # Clockwise input, relabelled by swapping B and C; signed zeros in the input.
    Triangle(A=Point(0.0, 0.0), B=Point(-0.0, 1.0), C=Point(1.0, -0.0)),
    Triangle(A=Point(2.0, -0.0), B=Point(2.0, 3.0), C=Point(5.0, 0.0)),
]


class TestLegs:
    """The frame's legs at V are (P - V, Q - V), computed by that very subtraction."""

    @settings(max_examples=200)
    @given(integer_triangles())
    def test_integer_triangles(self, t):
        _assert_legs_are_vertex_differences(t)

    @settings(max_examples=200)
    @given(float_triangles())
    def test_float_triangles(self, t):
        _assert_legs_are_vertex_differences(t)

    @pytest.mark.parametrize("t", SIGNED_ZERO_TRIANGLES)
    def test_signed_zeros_and_clockwise_input(self, t):
        _assert_legs_are_vertex_differences(t)

    @pytest.mark.parametrize("t", SIGNED_ZERO_TRIANGLES)
    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy,
                                            lambda t: pickle.loads(pickle.dumps(t))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_keep_legs_bit_for_bit(self, t, round_trip):
        other = round_trip(t)
        assert other == t
        legs, wanted = _legs(other), _legs(t)
        for v in OPPOSITE_SIDE:
            for leg, want in zip(legs[v], wanted[v]):
                assert _same_number(leg.x, want.x) and _same_number(leg.y, want.y), (v, leg, want)


class TestVertexNames:
    """Every public function that takes a vertex name rejects an unknown one."""

    T = Triangle(A=Point(1, 2), B=Point(0, 0), C=Point(3, 0))

    @pytest.mark.parametrize("call", [
        lambda t: similarity_check(t, "a"),  # names are case-sensitive
        lambda t: foot_of_altitude(t, "D"),
        lambda t: euclid_defect(t, "D"),
        lambda t: similarity_check(t, "D"),
    ])
    def test_unknown_vertex_rejected(self, call):
        with pytest.raises(GeometryError, match="unknown vertex"):
            call(self.T)


class TestTriangleFromSides:
    def test_3_4_5_placement(self):
        t = triangle_from_sides(3.0, 4.0, 5.0)
        assert t.B == Point(0.0, 0.0)
        assert t.C.x == pytest.approx(3.0, abs=1e-12)
        assert t.C.y == 0.0
        assert t.A.x == pytest.approx(3.0, abs=1e-12)
        assert t.A.y == pytest.approx(4.0, abs=1e-12)

    def test_equilateral_placement(self):
        t = triangle_from_sides(1.0, 1.0, 1.0)
        assert t.A.x == pytest.approx(0.5, abs=1e-15)
        assert t.A.y == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("sides", [(0.0, 1.0, 1.0), (-1.0, 2.0, 2.0), (1.0, -2.0, 2.0)])
    def test_non_positive_rejected(self, sides):
        with pytest.raises(NonPositiveSide):
            triangle_from_sides(*sides)

    @pytest.mark.parametrize("sides", [(1.0, 2.0, 5.0), (5.0, 1.0, 2.0), (1.0, 2.0, 3.0)])
    def test_inequality_violations_rejected(self, sides):
        with pytest.raises(TriangleInequalityViolated):
            triangle_from_sides(*sides)

    @settings(max_examples=200)
    @given(side_triples())
    def test_side_lengths_reproduced(self, sides):
        a, b, c = sides
        t = triangle_from_sides(a, b, c)
        m = t.metrics
        scale = max(a, b, c)
        assert abs(m.a - a) <= 1e-12 * scale
        assert abs(m.b - b) <= 1e-12 * scale
        assert abs(m.c - c) <= 1e-12 * scale


class TestMetrics:
    def test_3_4_5_values(self):
        m = triangle_from_sides(3.0, 4.0, 5.0).metrics
        assert m.area == pytest.approx(6.0, rel=1e-12)
        assert m.s == pytest.approx(6.0, rel=1e-12)
        assert m.gamma == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_angle_sum_and_herons_formula(self, fuzz_triangles):
        for t in fuzz_triangles:
            m = t.metrics
            assert abs(m.alpha + m.beta + m.gamma - math.pi) <= 1e-9
            heron = math.sqrt(m.s * (m.s - m.a) * (m.s - m.b) * (m.s - m.c))
            assert abs(m.area - heron) <= 1e-9 * max(1.0, heron)

    def test_law_of_sines(self, fuzz_triangles):
        for t in fuzz_triangles:
            m = t.metrics
            if min(m.alpha, m.beta, m.gamma) < 1e-3:
                # acos loses ~eps/angle^2 of relative sine precision near 0,
                # so slivers cannot meet a 1e-9 bound in double precision.
                continue
            ratios = (
                m.a / math.sin(m.alpha),
                m.b / math.sin(m.beta),
                m.c / math.sin(m.gamma),
            )
            spread = max(ratios) - min(ratios)
            assert spread <= 1e-9 * max(ratios)


def assert_cosines_match_the_legs(t):
    """Each side cosine in t.metrics against dot(VP, VQ) / (|VP| * |VQ|).

    Error budget, in units of u = 2^-53 and with S = a^2 + b^2 + c^2 and p,
    q the sides at V. The cosine is (p^2 + q^2 - r^2) / (2pq) from rounded
    square roots of the side squares: each square carries <= 5u relative
    error and the sums two more roundings, so the numerator is off by
    <= 7u * S and the cosine by <= 3.5u * S / (pq) + 6u * |cos|. The three
    side vectors are rounded separately, so the law of cosines holds among
    them only to about 3u * S / (pq). The reference is off by <= 8u. With
    S >= 2pq, all of it is under 14u * S / (pq); the test allows 16. The
    worst seen over 20 000 sampled and 20 000 lattice triangles is 2.5.
    A cosine scaled by 1 + 1e-6 misses by 1e-6 * |cos|, far outside it.
    """
    u = 2.0 ** -53
    m = t.metrics
    total = m.a * m.a + m.b * m.b + m.c * m.c
    adjacent = {"A": (m.c, m.b), "B": (m.a, m.c), "C": (m.b, m.a)}  # |VP|, |VQ|
    legs = _legs(t)
    for vertex, cos_v in zip("ABC", m.cosines):
        vp, vq = legs[vertex]
        reference = dot(vp, vq) / (math.sqrt(dot(vp, vp)) * math.sqrt(dot(vq, vq)))
        p, q = adjacent[vertex]
        assert abs(cos_v - reference) <= 16 * u * total / (p * q), (t, vertex)


class TestSideCosines:
    def test_sampled_triangles(self):
        rng = random.Random(2024)
        for _ in range(2000):
            assert_cosines_match_the_legs(random_triangle(rng))

    @settings(max_examples=300)
    @given(integer_triangles())
    def test_lattice_triangles(self, t):
        assert_cosines_match_the_legs(t)


class TestClassify:
    """`t.metrics.classification`, which the frame computes with the metrics."""

    def test_right_triangle(self):
        result = triangle_from_sides(3.0, 4.0, 5.0).metrics.classification
        assert result.kind == "right"
        assert result.vertex == "C"

    def test_obtuse_triangle(self):
        result = triangle_from_sides(2.0, 3.0, 4.0).metrics.classification
        assert result.kind == "obtuse"
        assert result.vertex == "C"

    def test_acute_triangle(self):
        result = triangle_from_sides(1.0, 1.0, 1.0).metrics.classification
        assert result.kind == "acute"
        assert result.vertex is None

    def test_near_right_lands_in_band(self):
        # Perturb the hypotenuse by far less than the band tolerates.
        m = triangle_from_sides(3.0, 4.0, 5.0 * (1.0 + 1e-14)).metrics
        assert m.classification.kind == "right"
        # Longer by 1e-8 relative, the cosine at C is near -2e-8, beyond the band.
        m = triangle_from_sides(3.0, 4.0, 5.0 * (1.0 + 1e-8)).metrics
        assert m.classification == Classification("obtuse", "C")

    def test_default_band_is_the_shared_right_angle_band(self):
        # A hypotenuse longer by 3e-10 relative puts the cosine at C near
        # -6e-10: outside a 1e-12 band, inside the 1e-9 one all readings use.
        m = triangle_from_sides(3, 4, 5 * (1 + 3e-10)).metrics
        assert abs(m.cosines[2]) > 1e-12
        assert m.classification == Classification("right", "C")

    @settings(max_examples=150)
    @given(float_triangles(), st.floats(1e-3, 1e3))
    def test_scale_invariant(self, t, factor):
        m = t.metrics
        scaled = Triangle(*(Point(factor * p.x, factor * p.y) for p in (t.A, t.B, t.C)))
        sm = scaled.metrics
        # Classification depends only on shape, so uniform scaling keeps it.
        assert m.classification.kind == sm.classification.kind

    # Kind -> two counterclockwise triangles of different shape, the vertex
    # that decides the kind first.
    SHAPES = {
        "acute": [((0, 0), (4, 0), (2, 3)), ((0, 0), (5, 0), (2, 4))],
        "right": [((0, 0), (4, 0), (0, 3)), ((0, 0), (5, 0), (0, 2))],
        "obtuse": [((0, 0), (4, 0), (-1, 3)), ((0, 0), (2, 0), (-3, 1))],
    }

    @pytest.mark.parametrize("kind, vertex", [
        ("acute", None), *((kind, v) for kind in ("right", "obtuse") for v in "ABC")])
    def test_each_outcome_is_one_shared_frozen_value(self, kind, vertex):
        # The deciding vertex moves to `vertex` by a cyclic relabelling,
        # which keeps the triangles counterclockwise.
        shift = "ABC".index(vertex or "A")
        first, second = (
            Triangle(*(Point(*p) for p in points[-shift:] + points[:-shift])).metrics.classification
            for points in self.SHAPES[kind])
        assert first is second
        fresh = Classification(kind, vertex)
        assert first == fresh and hash(first) == hash(fresh) and repr(first) == repr(fresh)
        with pytest.raises(AttributeError):
            first.kind = "acute"
        assert first.kind == kind


class TestFootOfAltitude:
    def test_foot_inside_segment(self):
        t = Triangle(A=Point(1, 2), B=Point(0, 0), C=Point(3, 0))
        foot, param = foot_of_altitude(t, from_vertex="A")
        assert foot.x == pytest.approx(1.0, abs=1e-15)
        assert foot.y == pytest.approx(0.0, abs=1e-15)
        assert param == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_foot_outside_segment(self):
        t = Triangle(A=Point(2, 1), B=Point(0, 0), C=Point(1, 0))
        foot, param = foot_of_altitude(t, from_vertex="A")
        assert foot.x == pytest.approx(2.0, abs=1e-15)
        assert foot.y == pytest.approx(0.0, abs=1e-15)
        assert param == pytest.approx(2.0, rel=1e-15)

    @settings(max_examples=200)
    @given(float_triangles())
    def test_foot_is_perpendicular_projection(self, t):
        for vertex, (p_name, q_name) in (("A", ("B", "C")), ("B", ("C", "A")), ("C", ("A", "B"))):
            v = getattr(t, vertex)
            p = getattr(t, p_name)
            q = getattr(t, q_name)
            foot, param = foot_of_altitude(t, from_vertex=vertex)
            edge = q - p
            # Foot lies on the carrier line at the reported parameter...
            assert foot.x == pytest.approx(p.x + param * edge.x, abs=1e-9 * max(1.0, abs(p.x), abs(q.x)))
            assert foot.y == pytest.approx(p.y + param * edge.y, abs=1e-9 * max(1.0, abs(p.y), abs(q.y)))
            # ...and the connecting segment is orthogonal to the edge.
            scale = max(1.0, dot(edge, edge))
            assert abs(dot(v - foot, edge)) <= 1e-9 * scale
