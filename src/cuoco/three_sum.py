"""The linear system x + y = L, x + z = M, y + z = N and its triangle readings.

The closed-form solution is x = (L+M-N)/2, y = (L+N-M)/2, z = (M+N-L)/2;
all three components are positive exactly when each of L, M, N is smaller
than the sum of the other two. Three choices of (L, M, N) make the same
system speak about one triangle three ways:

    squared sides  -> the components are the panel pair areas (R, T, S)
    sides          -> the incircle tangent lengths (at C, at B, at A)
    angles         -> the circumcenter splits (pi/2 - gamma, -beta, -alpha)

so "all positive" reads as: every pair area positive (acute), the strict
triangle inequality (always true), every split positive (acute again).
"""

from __future__ import annotations

import math

from .circles import CircumcircleData, IncircleData
from .decomposition import panel_area_exact, _trig_areas
from .geometry import (ANGLES, CLASSIFICATION, LENGTH_SCALE, SEMIPERIMETER, SIDES, TOLERANCE,
                       Classification, GeometryError, Triangle, _Frozen, _Record, _is_finite)


class ThreeSum(_Frozen):
    """Right-hand sides of x + y = L, x + z = M, y + z = N."""

    __slots__ = _fields = ("L", "M", "N")

    def __init__(self, L: float, M: float, N: float) -> None:
        _check_terms(L, M, N)
        self._store(L, M, N)


def _check_terms(L: float, M: float, N: float) -> None:
    """GeometryError naming the first right-hand side that is not finite."""
    for value in (L, M, N):
        if not _is_finite(value):
            raise GeometryError(f"system inputs must be finite, got {value!r}")


class Solution(_Record):
    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        self.x, self.y, self.z = x, y, z

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def _solve(L: float, M: float, N: float) -> tuple[float, float, float]:
    """solve(ThreeSum(L, M, N)) as (x, y, z), raising as those two would."""
    try:
        # Halves first: halving is exact, so this is (L + M - N) / 2 bit for
        # bit unless a sum would overflow or a half is subnormal.
        half_l, half_m, half_n = L / 2.0, M / 2.0, N / 2.0
    except OverflowError:  # an integer too large for a float
        half_l = half_m = half_n = math.nan
    x, y, z = (half_l + half_m) - half_n, (half_l + half_n) - half_m, (half_m + half_n) - half_l
    # Each component sums all three terms, so a bad term leaves none finite;
    # only then are the terms tested, to name it before an overflow.
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        _check_terms(L, M, N)
        raise GeometryError(f"the solution overflows a float: x={x}, y={y}, z={z}")
    return x, y, z


def solve(system: ThreeSum) -> Solution:
    return Solution(*_solve(system.L, system.M, system.N))


def all_positive(system: ThreeSum) -> bool:
    """True when every component of the solution is strictly positive."""
    L, M, N = system.L, system.M, system.N
    return L < M + N and M < L + N and N < L + M


class InterpretationReport(_Record):
    """Cross-check of the algebraic solution against measured geometry.

    `geometric` and `closed_form` are two independent routes to the values
    the solution components are supposed to equal, keyed by component.
    `max_residual` is the worst normalized deviation of the solution from
    either route; a NaN among the deviations is kept, so `passed` is False.
    `all_positive` is None when the sides reading cannot tell a tangent
    length's sign within rounding. `acute_iff_positive` records
    whether positivity agreed with the acute classification; None when
    the triangle is classified right (a side cosine within
    `RIGHT_ANGLE_BAND` of zero) or when the question does not apply (side
    lengths are positive for every triangle).
    """

    __slots__ = _fields = ("kind", "system", "solution", "mapping", "geometric", "closed_form",
                           "max_residual", "all_positive", "classification",
                           "acute_iff_positive", "passed")

    def __init__(self, kind: str, system: ThreeSum, solution: Solution, mapping: dict[str, str],
                 geometric: dict[str, float], closed_form: dict[str, float],
                 max_residual: float, all_positive: bool | None, classification: Classification,
                 acute_iff_positive: bool | None, passed: bool) -> None:
        self.kind, self.system, self.solution, self.mapping = kind, system, solution, mapping
        self.geometric, self.closed_form = geometric, closed_form
        self.max_residual, self.all_positive = max_residual, all_positive
        self.classification, self.acute_iff_positive = classification, acute_iff_positive
        self.passed = passed


def _report(kind: str, terms: tuple, mapping: dict[str, str], measured: tuple, values: tuple,
            classification: Classification, verdict_flag: bool | None,
            tol: float) -> InterpretationReport:
    """A reading's report. `terms` are the system's right-hand sides, `values`
    the reading's (solution, closed_form, all_positive, acute_iff_positive,
    max_residual), and the first (x, y, z) triple of `measured` is `geometric`.
    It passes when max_residual <= tol and `verdict_flag`, the flag its
    verdict reads, is not False."""
    solution, (cx, cy, cz), positive, acute, max_residual = values
    gx, gy, gz = measured[0]
    return InterpretationReport(
        kind, ThreeSum(*terms), Solution(*solution), mapping, {"x": gx, "y": gy, "z": gz},
        {"x": cx, "y": cy, "z": cz}, max_residual, positive, classification, acute,
        max_residual <= tol and verdict_flag is not False)


def _squares(a2, b2, c2, kind: str, gx, gy, gz, cx, cy, cz, scale) -> tuple:
    """The squares reading's values (see _report) from the squared sides, the kind
    of triangle, the pair areas (R, T, S) by the dots and by trig, and the area scale."""
    x, y, z = solution = _solve(a2, b2, c2)
    positive = a2 < b2 + c2 and b2 < a2 + c2 and c2 < a2 + b2
    # The worst deviation, a NaN kept: max() can drop a NaN, a sum of
    # nonnegative terms cannot.
    deviations = (abs(x - gx), abs(y - gy), abs(z - gz), abs(x - cx), abs(y - cy), abs(z - cz))
    total = sum(deviations)
    return (solution, (cx, cy, cz), positive,
            None if kind == "right" else positive == (kind == "acute"),
            (max(deviations) if total == total else total) / scale)


def interpret_squares(t: Triangle, tol: float = TOLERANCE) -> InterpretationReport:
    """(L, M, N) = squared sides; the solution must be the pair areas (R, T, S)."""
    m = t.metrics
    exact = (panel_area_exact("R", t), panel_area_exact("T", t), panel_area_exact("S", t))
    # panel_area_trig's values, each of its three cosines taken once.
    trig_r, trig_s, trig_t = _trig_areas(m.a, m.b, m.c, math.cos(m.alpha), math.cos(m.beta),
                                         math.cos(m.gamma))
    values = _squares(*m.side_squares, m.classification.kind, *exact, trig_r, trig_t, trig_s,
                      m.area_scale)
    return _report("squares", m.side_squares, {"x": "R", "y": "T", "z": "S"}, (exact,), values,
                   m.classification, values[3], tol)


# Rounding budget on a tangent length, in units of u * max side with
# u = 2**-53. Each side is the square root of its leg's squared length; the
# leg's two components are rounded differences, so the side is off by at
# most 3u relative (2u from the squared, summed components after the square
# root halves them, u from the root itself). The solution's halves are
# exact; its sum and difference add u * max side each. 3/2 * 3 sides + 2 =
# 6.5, rounded up to 8 for the second-order terms.
SIDES_BUDGET = 8


def _sides(a, b, c, s, gx, gy, gz, scale) -> tuple:
    """The sides reading's values (see _report) from the sides, the
    semiperimeter, the tangent lengths at C, B, A and the length scale."""
    x, y, z = solution = _solve(a, b, c)
    cx, cy, cz = s - c, s - b, s - a
    smallest = min(solution)
    undecided = abs(smallest) <= math.ldexp(SIDES_BUDGET * max(a, b, c), -53)
    deviations = (abs(x - gx), abs(y - gy), abs(z - gz), abs(x - cx), abs(y - cy), abs(z - cz))
    total = sum(deviations)  # a NaN kept, as in _squares
    return (solution, (cx, cy, cz), None if undecided else smallest > 0, None,
            (max(deviations) if total == total else total) / scale)


def interpret_sides(inc: IncircleData, tol: float = TOLERANCE) -> InterpretationReport:
    """(L, M, N) = sides; the solution must be the incircle's tangent lengths.

    x = s - c (tangent length at C), y = s - b (at B), z = s - a (at A).
    Positivity is the strict triangle inequality, so it holds in exact
    arithmetic. In floats a needle's tangent length can round to zero or
    below, so a sign is decided only beyond the rounding budget
    SIDES_BUDGET * u * max side; within it `all_positive` is None.
    """
    f, lengths = inc.triangle.frame, inc.tangent_lengths
    measured = (lengths["C"], lengths["B"], lengths["A"])
    values = _sides(*f[SIDES], f[SEMIPERIMETER], *measured, f[LENGTH_SCALE])
    return _report(
        "sides", f[SIDES],
        {"x": "tangent length at C", "y": "tangent length at B", "z": "tangent length at A"},
        (measured,), values, f[CLASSIFICATION], values[2], tol)


def _angles(alpha, beta, gamma, kind: str, gx, gy, gz, hx, hy, hz) -> tuple:
    """The angles reading's values (see _report) from the angles, the kind of
    triangle and two (x, y, z) split triples; the deviation is absolute."""
    x, y, z = solution = _solve(alpha, beta, gamma)
    half_pi = math.pi / 2.0
    cx, cy, cz = half_pi - gamma, half_pi - beta, half_pi - alpha
    positive = alpha < beta + gamma and beta < alpha + gamma and gamma < alpha + beta
    deviations = (abs(x - gx), abs(y - gy), abs(z - gz), abs(x - cx), abs(y - cy), abs(z - cz),
                  abs(x - hx), abs(y - hy), abs(z - hz))
    total = sum(deviations)  # a NaN kept, as in _squares
    return (solution, (cx, cy, cz), positive,
            None if kind == "right" else positive == (kind == "acute"),
            max(deviations) if total == total else total)


def interpret_angles(circ: CircumcircleData, tol: float = TOLERANCE) -> InterpretationReport:
    """(L, M, N) = angles; the solution must be the circumcircle's splits.

    x = pi/2 - gamma appears at both ends of side c (the isosceles central
    triangle over AB), y = pi/2 - beta over side b, z = pi/2 - alpha over
    side a. Residuals are absolute: angles are already order one.
    """
    m = circ.triangle.metrics
    # Each component is realized twice; hold it against both measurements.
    at_a, at_b, at_c = circ.splits["A"], circ.splits["B"], circ.splits["C"]
    measured = ((at_a["B"], at_a["C"], at_b["C"]), (at_b["A"], at_c["A"], at_c["B"]))
    values = _angles(*circ.triangle.frame[ANGLES], m.classification.kind, *measured[0],
                     *measured[1])
    return _report(
        "angles", (m.alpha, m.beta, m.gamma),
        {"x": "split over side c", "y": "split over side b", "z": "split over side a"},
        measured, values, m.classification, values[3], tol)
