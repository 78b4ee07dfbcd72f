import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from cuoco.checks import rows
from cuoco.cosine_law import (
    DomainError,
    cos_from_sides,
    euclid_defect,
    third_side,
    verify_cosine_identity,
)
from cuoco.geometry import (
    NonFiniteCoordinate,
    NonPositiveSide,
    Point,
    Triangle,
    triangle_from_sides,
    TriangleInequalityViolated,
)

from conftest import integer_triangles, side_triples


class TestThirdSide:
    def test_right_angle_gives_hypotenuse(self):
        assert third_side(3.0, 4.0, math.pi / 2.0) == pytest.approx(5.0, rel=1e-12)

    def test_equilateral(self):
        assert third_side(1.0, 1.0, math.pi / 3.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("angle", [0.0, math.pi, -0.5, math.pi + 0.1])
    def test_degenerate_angle_rejected(self, angle):
        with pytest.raises(DomainError):
            third_side(1.0, 1.0, angle)

    def test_non_positive_side_rejected(self):
        with pytest.raises(NonPositiveSide):
            third_side(0.0, 1.0, 1.0)
        with pytest.raises(NonPositiveSide):
            third_side(1.0, -2.0, 1.0)

    # Each of these returned a number before the sides were validated like
    # cos_from_sides's: 0.0 for the first three, 0.9589 for the bools.
    @pytest.mark.parametrize("a, b", [(math.nan, 1), (1, math.nan), (math.inf, 1.0)])
    def test_non_finite_side_rejected(self, a, b):
        with pytest.raises(NonPositiveSide):
            third_side(a, b, 1.0)

    def test_overflowing_squares_rejected(self):
        with pytest.raises(NonFiniteCoordinate, match="overflow"):
            third_side(1e200, 1e200, 1.0)

    def test_bool_side_rejected(self):
        with pytest.raises(NonPositiveSide):
            third_side(True, True, 1.0)

    @settings(max_examples=200)
    @given(
        st.floats(0.1, 50.0),
        st.floats(0.1, 50.0),
        st.floats(0.01, math.pi - 0.01),
    )
    def test_round_trip_recovers_angle(self, a, b, gamma):
        c = third_side(a, b, gamma)
        assert cos_from_sides(a, b, c) == pytest.approx(math.cos(gamma), abs=1e-9)


class TestCosFromSides:
    def test_frozen_value(self):
        assert cos_from_sides(2.0, 3.0, 4.0) == pytest.approx(-0.25, rel=1e-15)

    def test_right_triangle(self):
        assert cos_from_sides(3.0, 4.0, 5.0) == pytest.approx(0.0, abs=1e-15)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(NonPositiveSide):
            cos_from_sides(0.0, 1.0, 1.0)
        with pytest.raises(TriangleInequalityViolated):
            cos_from_sides(1.0, 2.0, 5.0)

    def test_tiny_sides(self):
        # Their squares underflow to zero without the power-of-two rescaling.
        assert cos_from_sides(1e-200, 1e-200, 1e-200) == 0.5
        assert cos_from_sides(3e-200, 4e-200, 5e-200) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=500)
    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_rescaling_leaves_ordinary_sides_bit_identical(self, a, b, c):
        assume(a + b > c and a + c > b and b + c > a)
        assert cos_from_sides(a, b, c) == (a * a + b * b - c * c) / (2.0 * a * b)

    @settings(max_examples=200)
    @given(side_triples())
    def test_value_strictly_inside_unit_interval(self, sides):
        a, b, c = sides
        assert -1.0 < cos_from_sides(a, b, c) < 1.0


class TestSideValidation:
    """triangle_from_sides and cos_from_sides reject the same inputs."""

    SIDE_FUNCTIONS = (triangle_from_sides, cos_from_sides)

    def test_bools_rejected(self):
        for function in self.SIDE_FUNCTIONS:
            with pytest.raises(NonPositiveSide):
                function(True, True, True)

    def test_squares_that_overflow_rejected(self):
        for function in self.SIDE_FUNCTIONS:
            with pytest.raises(NonFiniteCoordinate, match="overflow"):
                function(1e300, 1e300, 1e300)

    def test_integers_too_large_for_a_float_rejected(self):
        for function in self.SIDE_FUNCTIONS:
            with pytest.raises(NonPositiveSide):
                function(10**400, 10**400, 10**400)


class TestEuclidDefect:
    def test_acute_vertex_frozen_example(self):
        t = Triangle(A=Point(1, 2), B=Point(0, 0), C=Point(3, 0))
        defect, residual = euclid_defect(t, at_vertex="B")
        assert defect == 6
        assert residual == 0

    def test_obtuse_vertex_frozen_example(self):
        t = Triangle(A=Point(-1, 2), B=Point(0, 0), C=Point(2, 0))
        defect, residual = euclid_defect(t, at_vertex="A")
        defect_b, residual_b = euclid_defect(t, at_vertex="B")
        assert residual == 0
        assert defect_b == -4
        assert residual_b == 0

    def test_right_vertex_has_zero_defect(self):
        t = Triangle(A=Point(0, 4), B=Point(0, 0), C=Point(3, 0))
        defect, residual = euclid_defect(t, at_vertex="B")
        assert defect == 0
        assert residual == 0

    @pytest.mark.parametrize("legs", [(3, 4), (5, 12), (8, 15), (7, 24)])
    def test_pythagorean_right_angles_exact(self, legs):
        p, q = legs
        t = Triangle(A=Point(0, p), B=Point(0, 0), C=Point(q, 0))
        defect, residual = euclid_defect(t, at_vertex="B")
        assert defect == 0 and residual == 0

    @settings(max_examples=300)
    @given(integer_triangles())
    def test_integer_coordinates_give_exact_identity(self, t):
        for vertex in ("A", "B", "C"):
            defect, residual = euclid_defect(t, at_vertex=vertex)
            assert isinstance(defect, int)
            assert residual == 0

    def test_sign_matches_vertex_angle(self, fuzz_triangles):
        for t in fuzz_triangles:
            m = t.metrics
            for vertex, angle in (("A", m.alpha), ("B", m.beta), ("C", m.gamma)):
                defect, _ = euclid_defect(t, at_vertex=vertex)
                cosine = math.cos(angle)
                if abs(cosine) > 1e-9:
                    assert (defect > 0) == (cosine > 0)


class TestVerifyCosineIdentity:
    def test_passes_on_random_triangles(self, fuzz_triangles):
        for t in fuzz_triangles[:400]:
            m = t.metrics
            residuals = verify_cosine_identity(m)
            assert max(abs(r) for r in residuals) <= 1e-9 * max(m.a**2, m.b**2, m.c**2)

    def test_scale_tracks_largest_side(self):
        # The catalogue's cosine_identity record: its scale is max side^2,
        # with no floor, and its residual the worst of the three.
        t = triangle_from_sides(3.0, 4.0, 5.0)
        record = next(row for row in rows(t) if row[0] == "cosine_identity")
        _, _, residual, scale, (residuals,) = record
        assert scale == pytest.approx(25.0, rel=1e-12)
        assert residuals == verify_cosine_identity(t.metrics)
        assert residual == max(abs(r) for r in residuals) <= 1e-9 * scale
