import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cuoco import cli, three_sum
from cuoco.circles import circumcircle, incircle
from cuoco.cosine_law import verify_cosine_identity
from cuoco.decomposition import panel_area_trig
from cuoco.geometry import (ANGLES, AREA_SCALE, CLASSIFICATION, DOTS, FIELDS, LENGTH_SCALE,
                            SEMIPERIMETER, SIDE_SQUARES, SIDES, GeometryError, Point, Triangle,
                            TriangleMetrics, frame_getter, _is_finite, _worst, triangle_from_sides)
from cuoco.three_sum import (
    SIDES_BUDGET,
    ThreeSum,
    all_positive,
    interpret_angles,
    interpret_sides,
    interpret_squares,
    solve,
)


from conftest import eliminate, run_script, tree_copy

finite_values = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


class TestSolve:
    def test_frozen_small_system(self):
        assert solve(ThreeSum(3.0, 4.0, 5.0)).as_tuple() == pytest.approx((1.0, 2.0, 3.0), abs=1e-15)

    def test_frozen_mixed_sign_solution(self):
        sol = solve(ThreeSum(4.0, 9.0, 16.0))
        assert sol.as_tuple() == pytest.approx((-1.5, 5.5, 10.5), abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ThreeSum(float("nan"), 1.0, 2.0)
        with pytest.raises(ValueError):
            ThreeSum(1.0, float("inf"), 2.0)

    @pytest.mark.parametrize("values", [(10**400, 1, 1), (1.0, -10**400, 2.0)])
    def test_rejects_integer_beyond_float_range(self, values):
        # math.isfinite raises OverflowError on such an integer.
        with pytest.raises(GeometryError, match="must be finite, got .*0000"):
            ThreeSum(*values)

    def test_finite_terms_whose_sum_overflows_are_accepted(self):
        # 1e308 + 1e308 is inf, so the one-sum test fails; each term is
        # then tested on its own, and all three are finite.
        system = ThreeSum(1e308, 1e308, -1e308)
        assert (system.L, system.M, system.N) == (1e308, 1e308, -1e308)

    def test_opposite_infinities_are_named(self):
        # inf - inf is NaN, so the sum alone does not say which term is bad.
        with pytest.raises(GeometryError, match="got inf"):
            ThreeSum(math.inf, -math.inf, 1)

    def test_integers_beyond_float_range_that_cancel_are_rejected(self):
        # Their integer sum is 1, finite; each is still too large for a float.
        with pytest.raises(GeometryError, match="must be finite, got .*0000"):
            ThreeSum(10**400, -10**400, 1)

    def test_large_finite_input_stays_finite(self):
        # (L + M - N) / 2 would overflow in L + M.
        assert solve(ThreeSum(1e308, 1e308, 1e308)).as_tuple() == (5e307, 5e307, 5e307)
        assert solve(ThreeSum(1.7e308, 1.7e308, 1e308)).x == 1.2e308

    def test_unrepresentable_solution_rejected(self):
        with pytest.raises(GeometryError, match="overflows"):
            solve(ThreeSum(1.7e308, 1.7e308, -1.7e308))

    def test_halves_first_is_bit_identical_on_normal_inputs(self):
        # Halving is exact, so halves-first changes no bit of the
        # solution away from overflow and subnormals.
        rng = random.Random(20161)
        for _ in range(20000):
            L, M, N = (rng.choice((-1, 1)) * 10.0 ** rng.uniform(-8, 8) for _ in range(3))
            old = ((L + M - N) / 2.0, (L + N - M) / 2.0, (M + N - L) / 2.0)
            got = solve(ThreeSum(L, M, N)).as_tuple()
            assert [v.hex() for v in got] == [v.hex() for v in old], (L, M, N)

    @settings(max_examples=300)
    @given(finite_values, finite_values, finite_values)
    def test_matches_elimination_oracle(self, L, M, N):
        sol = solve(ThreeSum(L, M, N)).as_tuple()
        oracle = eliminate(L, M, N)
        scale = max(1.0, abs(L), abs(M), abs(N))
        for got, want in zip(sol, oracle):
            assert abs(got - want) <= 1e-12 * scale

    @settings(max_examples=300)
    @given(finite_values, finite_values, finite_values)
    def test_reconstruction_residuals(self, L, M, N):
        sol = solve(ThreeSum(L, M, N))
        res = (sol.x + sol.y - L, sol.x + sol.z - M, sol.y + sol.z - N)
        scale = max(1.0, abs(L), abs(M), abs(N))
        assert max(abs(r) for r in res) <= 1e-12 * scale


class TestAllPositive:
    def test_frozen_cases(self):
        assert all_positive(ThreeSum(3.0, 4.0, 5.0)) is True
        assert all_positive(ThreeSum(4.0, 9.0, 16.0)) is False
        assert all_positive(ThreeSum(1.0, 1.0, 3.0)) is False

    @settings(max_examples=300)
    @given(finite_values, finite_values, finite_values)
    def test_equivalent_to_positive_solution(self, L, M, N):
        system = ThreeSum(L, M, N)
        sol = solve(system).as_tuple()
        scale = max(1.0, abs(L), abs(M), abs(N))
        assume(min(sol) > 1e-12 * scale or min(sol) < -1e-12 * scale)
        assert all_positive(system) == (min(sol) > 0.0)

    def test_strictness_at_zero(self):
        # x = 0 exactly: L + M == N.
        assert all_positive(ThreeSum(1.0, 2.0, 3.0)) is False


class TestInterpretSquares:
    def test_obtuse_triangle(self):
        report = interpret_squares(triangle_from_sides(2.0, 3.0, 4.0))
        assert report.kind == "squares"
        assert report.solution.as_tuple() == pytest.approx((-1.5, 5.5, 10.5), abs=1e-12)
        assert report.geometric == pytest.approx({"x": -1.5, "y": 5.5, "z": 10.5}, abs=1e-12)
        assert report.all_positive is False
        assert report.classification.kind == "obtuse"
        assert report.acute_iff_positive is True
        assert report.passed

    def test_acute_triangle(self):
        report = interpret_squares(triangle_from_sides(6.0, 7.0, 8.0))
        assert report.all_positive is True
        assert report.classification.kind == "acute"
        assert report.acute_iff_positive is True
        assert report.passed

    def test_right_triangle_excluded_from_equivalence(self):
        report = interpret_squares(triangle_from_sides(3.0, 4.0, 5.0))
        assert report.classification.kind == "right"
        assert report.acute_iff_positive is None
        assert report.passed

    def test_three_cosines_for_the_trig_pair_areas(self, monkeypatch):
        # One cosine per angle, and the trig pair areas panel_area_trig gives.
        t = triangle_from_sides(2.0, 3.0, 4.0)
        m = t.metrics
        trig = [panel_area_trig(pair, m).hex() for pair in "RTS"]
        calls, cos = [], math.cos
        monkeypatch.setattr(math, "cos", lambda angle: calls.append(angle) or cos(angle))
        report = interpret_squares(t)
        assert sorted(calls) == sorted((m.alpha, m.beta, m.gamma))
        assert [value.hex() for value in report.closed_form.values()] == trig

    def test_system_is_squared_sides(self):
        report = interpret_squares(triangle_from_sides(2.0, 3.0, 4.0))
        assert (report.system.L, report.system.M, report.system.N) == pytest.approx((4.0, 9.0, 16.0), rel=1e-12)


class TestInterpretSides:
    def test_tangent_lengths_frozen(self):
        report = interpret_sides(incircle(triangle_from_sides(2.0, 3.0, 4.0)))
        assert report.kind == "sides"
        # Semiperimeter 4.5: x = s - c = 0.5, y = s - b = 1.5, z = s - a = 2.5.
        assert report.solution.as_tuple() == pytest.approx((0.5, 1.5, 2.5), abs=1e-12)
        assert report.geometric == pytest.approx({"x": 0.5, "y": 1.5, "z": 2.5}, abs=1e-9)
        assert report.all_positive is True
        assert report.passed

    def test_always_positive(self, fuzz_triangles):
        for t in fuzz_triangles[:200]:
            report = interpret_sides(incircle(t))
            assert report.all_positive is True
            assert report.passed

    def test_right_triangle_values(self):
        report = interpret_sides(incircle(triangle_from_sides(3.0, 4.0, 5.0)))
        assert report.solution.as_tuple() == pytest.approx((1.0, 2.0, 3.0), abs=1e-12)

    def test_needle_sign_is_undecided(self):
        # Area 0.5, but the float sides satisfy b == a + c: the tangent
        # length at B, about 2.5e-17, rounds to zero.
        t = Triangle(Point(0, 0), Point(1, 0), Point(1e8, 1))
        m = t.metrics
        assert m.b == m.a + m.c
        report = interpret_sides(incircle(t))
        assert abs(report.solution.y) <= SIDES_BUDGET * 2.0**-53 * m.b
        assert report.all_positive is None
        assert report.passed

    @pytest.mark.parametrize("times, expected", [(2.0, False), (0.5, None)])
    def test_sign_decided_only_beyond_the_budget(self, tmp_path, times, expected):
        # A mutant sides solution, a source edit of `_readings` in a copy of
        # the package, that puts the needle's smallest tangent length `times`
        # the rounding budget below zero: beyond the budget the reading
        # fails, within it the sign stays undecided.
        pushed = f"    sd_y = -{times} * SIDES_BUDGET * 2.0**-53 * max(a, b, c)\n"
        root = tree_copy(tmp_path, ("three_sum.py", "    sd_cx, sd_cy, sd_cz = ",
                                    pushed + "    sd_cx, sd_cy, sd_cz = "))
        result = run_script(root, (
            "from cuoco import Point, Triangle, incircle, interpret_sides\n"
            "needle = Triangle(Point(0, 0), Point(1, 0), Point(1e8, 1))\n"
            "report = interpret_sides(incircle(needle))\n"
            "print(repr((report.all_positive, report.passed)))\n"))
        assert result.stdout == f"{(expected, expected is None)!r}\n", result.stderr


class TestInterpretAngles:
    def test_obtuse_split_goes_negative(self):
        report = interpret_angles(circumcircle(triangle_from_sides(2.0, 3.0, 4.0)))
        assert report.kind == "angles"
        x, y, z = report.solution.as_tuple()
        gamma = math.acos(-0.25)
        assert x == pytest.approx(math.pi / 2.0 - gamma, abs=1e-12)
        assert x == pytest.approx(-0.2526802551420787, abs=1e-12)
        assert y > 0 and z > 0
        assert report.all_positive is False
        assert report.acute_iff_positive is True
        assert report.passed

    def test_sums_are_the_vertex_angles(self):
        # x+y = (pi/2-gamma)+(pi/2-beta) = alpha, and cyclically.
        report = interpret_angles(circumcircle(triangle_from_sides(6.0, 7.0, 8.0)))
        m = triangle_from_sides(6.0, 7.0, 8.0).metrics
        assert report.system.L == pytest.approx(m.alpha, abs=1e-12)
        assert report.system.M == pytest.approx(m.beta, abs=1e-12)
        assert report.system.N == pytest.approx(m.gamma, abs=1e-12)
        assert report.all_positive is True
        assert report.passed

    def test_right_triangle_excluded_from_equivalence(self):
        report = interpret_angles(circumcircle(triangle_from_sides(3.0, 4.0, 5.0)))
        assert report.acute_iff_positive is None
        assert report.passed


def edit_frame(t: Triangle, **values) -> None:
    """Replace the values named in t's frame, as geometry.LAYOUT names them."""
    frame = list(t.frame)
    for name, value in values.items():
        frame[FIELDS.index(name)] = value
    object.__setattr__(t, "frame", tuple(frame))


class TestReadingsReadTheirConstruction:
    """A reading takes its circle, a view of the triangle's frame, and
    measures nothing again: a shift in the frame's circle values shows in
    the circle and in the reading's residual."""

    def test_sides_reading_reads_the_given_incircle(self):
        inc = incircle(triangle_from_sides(2.0, 3.0, 4.0))
        shifted = inc.tangent_lengths["B"] + 1e-6
        edit_frame(inc.triangle, length_B=shifted)
        assert inc.tangent_lengths["B"] == shifted
        report = interpret_sides(inc)
        assert report.geometric["y"] == shifted
        assert report.max_residual == pytest.approx(1e-6 / 4.0, rel=1e-6)
        assert not report.passed

    def test_angles_reading_reads_the_given_circumcircle(self):
        circ = circumcircle(triangle_from_sides(2.0, 3.0, 4.0))
        shifted = {w: value + 1e-6 for w, value in circ.splits["C"].items()}
        edit_frame(circ.triangle, C_A=shifted["A"], C_B=shifted["B"])
        assert circ.splits["C"] == shifted
        report = interpret_angles(circ)
        assert report.max_residual == pytest.approx(1e-6, rel=1e-6)
        assert not report.passed


class TestPositivityMatchesShape:
    def test_over_random_triangles(self, fuzz_triangles):
        for t in fuzz_triangles[:300]:
            for report in (interpret_squares(t), interpret_angles(circumcircle(t))):
                assert report.passed
                if report.acute_iff_positive is not None:
                    assert report.acute_iff_positive is True


class TestReadingsKeepANaN:
    """A NaN in any one value a reading compares with, not only the first it
    folds, gives max_residual NaN and fails the reading."""

    @staticmethod
    def assert_nan_fails(report):
        assert math.isnan(report.max_residual)
        assert report.passed is False

    @pytest.mark.parametrize("route", ["panel_area_exact", "panel_area_trig"])
    @pytest.mark.parametrize("pair", ["R", "T", "S"])
    def test_squares(self, route, pair):
        # The reading takes the exact pair areas from the frame and the trig
        # ones from the angles' cosines: R from gamma, S from alpha, T from beta.
        t = triangle_from_sides(2.0, 3.0, 4.0)
        angle = {"R": "gamma", "S": "alpha", "T": "beta"}[pair]
        edit_frame(t, **{pair if route == "panel_area_exact" else angle: math.nan})
        self.assert_nan_fails(interpret_squares(t))

    @pytest.mark.parametrize("vertex", ["A", "B", "C"])
    def test_sides_measured(self, vertex):
        inc = incircle(triangle_from_sides(2.0, 3.0, 4.0))
        edit_frame(inc.triangle, **{f"length_{vertex}": math.nan})
        assert math.isnan(inc.tangent_lengths[vertex])
        self.assert_nan_fails(interpret_sides(inc))

    def test_sides_closed_form(self):
        # The closed forms s - a, s - b, s - c all read the semiperimeter.
        inc = incircle(triangle_from_sides(2.0, 3.0, 4.0))
        edit_frame(inc.triangle, s=math.nan)
        self.assert_nan_fails(interpret_sides(inc))

    @pytest.mark.parametrize("at, toward", [("A", "B"), ("A", "C"), ("B", "A"), ("B", "C"),
                                            ("C", "A"), ("C", "B")])
    def test_angles_measured(self, at, toward):
        circ = circumcircle(triangle_from_sides(2.0, 3.0, 4.0))
        edit_frame(circ.triangle, **{f"{at}_{toward}": math.nan})
        assert math.isnan(circ.splits[at][toward])
        self.assert_nan_fails(interpret_angles(circ))


# The readings as they were composed from helpers: _check_terms' one-sum fast
# path, _solve, _all_positive and _deviation folding with _worst. The one flat
# pass, `_readings`, must give the same five values of each reading, or a
# solution that is not finite where the composition raises, and on those terms
# _solve must raise the same error. Its cosine identity residuals and trig pair
# areas must be those of the metric-level references.
def composed_check_terms(L, M, N):
    try:
        finite = math.isfinite(0.0 + L + M + N)
    except OverflowError:
        finite = False
    if not finite:
        for value in (L, M, N):
            if not _is_finite(value):
                raise GeometryError(f"system inputs must be finite, got {value!r}")


def composed_solve(L, M, N):
    composed_check_terms(L, M, N)
    L, M, N = L / 2.0, M / 2.0, N / 2.0
    x, y, z = (L + M) - N, (L + N) - M, (M + N) - L
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise GeometryError(f"the solution overflows a float: x={x}, y={y}, z={z}")
    return x, y, z


def composed_all_positive(L, M, N):
    return L < M + N and M < L + N and N < L + M


def composed_deviation(solution, measured, closed_form, scale):
    x, y, z = solution
    (gx, gy, gz), (cx, cy, cz) = measured[0], closed_form
    worst = _worst((abs(x - gx), abs(y - gy), abs(z - gz), abs(x - cx), abs(y - cy), abs(z - cz)))
    for ox, oy, oz in measured[1:]:
        worst = _worst((worst, abs(x - ox), abs(y - oy), abs(z - oz)))
    return worst / scale


def composed_squares(a2, b2, c2, kind, gx, gy, gz, cx, cy, cz, scale):
    solution = composed_solve(a2, b2, c2)
    positive = composed_all_positive(a2, b2, c2)
    acute = None if kind == "right" else positive == (kind == "acute")
    return (solution, (cx, cy, cz), positive, acute,
            composed_deviation(solution, ((gx, gy, gz),), (cx, cy, cz), scale))


def composed_sides(a, b, c, s, gx, gy, gz, scale):
    solution = composed_solve(a, b, c)
    closed = (s - c, s - b, s - a)
    smallest = min(solution)
    undecided = abs(smallest) <= math.ldexp(SIDES_BUDGET * max(a, b, c), -53)
    return (solution, closed, None if undecided else smallest > 0, None,
            composed_deviation(solution, ((gx, gy, gz),), closed, scale))


def composed_angles(alpha, beta, gamma, kind, gx, gy, gz, hx, hy, hz):
    solution = composed_solve(alpha, beta, gamma)
    closed = (math.pi / 2.0 - gamma, math.pi / 2.0 - beta, math.pi / 2.0 - alpha)
    positive = composed_all_positive(alpha, beta, gamma)
    acute = None if kind == "right" else positive == (kind == "acute")
    return (solution, closed, positive, acute,
            composed_deviation(solution, ((gx, gy, gz), (hx, hy, hz)), closed, 1.0))


READINGS = {"squares": composed_squares, "sides": composed_sides, "angles": composed_angles}
TERMS = {"squares": SIDE_SQUARES, "sides": SIDES, "angles": ANGLES}
# Every float value of the frame that `_readings` reads.
READ = ("a b c alpha beta gamma s a2 b2 c2 area_scale length_scale S T R length_A length_B "
        "length_C A_B A_C B_C B_A C_A C_B").split()


TANGENT_LENGTHS = frame_getter("length_C length_B length_A")
SPLITS = frame_getter("A_B A_C B_C B_A C_A C_B")


def reading_args(f):
    """Each reading's arguments for a frame, as the composition takes them."""
    S, T, R = f[DOTS]
    m = TriangleMetrics._view(f)
    trig_r, trig_t, trig_s = (panel_area_trig(pair, m) for pair in "RTS")
    kind = f[CLASSIFICATION].kind
    return {"squares": (*f[SIDE_SQUARES], kind, R, T, S, trig_r, trig_t, trig_s, f[AREA_SCALE]),
            "sides": (*f[SIDES], f[SEMIPERIMETER], *TANGENT_LENGTHS(f), f[LENGTH_SCALE]),
            "angles": (*f[ANGLES], kind, *SPLITS(f))}


def outcome(reading, args):
    """A reading's five values by repr, or the type and message it raises."""
    try:
        return repr(reading(*args))
    except GeometryError as exc:
        return type(exc), str(exc)


def composed(f):
    """The composition's outcome for a frame: the metric-level cosine identity
    residuals and trig pair areas R, S, T by repr, then each reading's."""
    m = TriangleMetrics._view(f)
    args = reading_args(f)
    return [repr(verify_cosine_identity(m)), repr(tuple(panel_area_trig(p, m) for p in "RST")),
            *(outcome(READINGS[name], args[name]) for name in READINGS)]


def flat(f):
    """`_readings`' outcome for a frame, split as `composed` splits it; a
    reading whose solution is not finite reads as what _solve raises on its
    terms, as the catalogue raises it."""
    values = three_sum._readings(f)
    found = [repr(values[:3]), repr(values[3:6])]
    for start, name in zip((6, 15, 24), READINGS):
        x, y, z, cx, cy, cz, positive, acute, worst = values[start:start + 9]
        if math.isfinite(x) and math.isfinite(y) and math.isfinite(z):
            found.append(repr(((x, y, z), (cx, cy, cz), positive, acute, worst)))
        else:
            found.append(outcome(three_sum._solve, f[TERMS[name]]))
    return found


class TestFlatReadingsMatchTheComposition:
    @staticmethod
    def assert_match(f):
        # Both take an infinite angle's cosine, where math.cos raises.
        results = []
        for compute in (flat, composed):
            try:
                results.append(compute(f))
            except ValueError as exc:
                results.append((type(exc), str(exc)))
        assert results[0] == results[1], f

    def test_fuzz_frames(self):
        rng = random.Random(2024)
        for _ in range(2000):
            self.assert_match(cli._sample(rng))

    @pytest.mark.parametrize("t", [Triangle(Point(0, 0), Point(4, 0), Point(4, 3)),
                                   Triangle(Point(0, 0), Point(1, 0), Point(1e8, 1))],
                             ids=["3-4-5", "needle"])
    def test_right_triangle_and_needle(self, t):
        self.assert_match(t.frame)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("sides", [(2.0, 3.0, 4.0), (6.0, 7.0, 8.0)])
    def test_non_finite_value_in_each_position(self, sides, value):
        # Every float value the readings read in turn: the systems' terms
        # (whose readings raise), each measured and closed-form value's
        # sources, and the scales.
        f = triangle_from_sides(*sides).frame
        for name in READ:
            edited = list(f)
            edited[FIELDS.index(name)] = value
            self.assert_match(tuple(edited))

    @pytest.mark.parametrize("terms", [
        (3.0, 4.0, 5.0), (3, 4, 5), (10**400, 1, 1), (1.0, -10**400, 2.0), (10**400, -10**400, 1),
        (math.nan, 10**400, 1), (math.inf, -math.inf, 1), (1.0, 2.0, math.nan),
        (1e308, 1e308, 1e308), (1e308, 1e308, -1e308), (1.7e308, 1.7e308, -1.7e308),
        (5e-324, 5e-324, 5e-324),
    ])
    def test_solve(self, terms):
        assert outcome(three_sum._solve, terms) == outcome(composed_solve, terms)
