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
from .decomposition import panel_area_exact, panel_area_trig
from .geometry import (ANGLES, AREA_SCALE, CLASSIFICATION, LENGTH_SCALE, SEMIPERIMETER,
                       SIDE_SQUARES, SIDES, TOLERANCE, Classification, GeometryError, Triangle,
                       _Frozen, _Record, _is_finite, _worst)


class ThreeSum(_Frozen):
    """Right-hand sides of x + y = L, x + z = M, y + z = N."""

    __slots__ = _fields = ("L", "M", "N")

    def __init__(self, L: float, M: float, N: float) -> None:
        _check_terms(L, M, N)
        self._store(L, M, N)


def _check_terms(L: float, M: float, N: float) -> None:
    """GeometryError unless every right-hand side is finite."""
    try:  # a finite float sum means every term is finite
        finite = math.isfinite(0.0 + L + M + N)
    except OverflowError:  # 0.0 + an integer too large for a float
        finite = False
    if not finite:  # a bad term, or finite terms whose sum overflows
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
    _check_terms(L, M, N)
    # Halves first: halving is exact, so this is (L + M - N) / 2 bit for bit
    # unless a sum would overflow or a half is subnormal.
    L, M, N = L / 2.0, M / 2.0, N / 2.0
    x, y, z = (L + M) - N, (L + N) - M, (M + N) - L
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise GeometryError(f"the solution overflows a float: x={x}, y={y}, z={z}")
    return x, y, z


def solve(system: ThreeSum) -> Solution:
    return Solution(*_solve(system.L, system.M, system.N))


def _all_positive(L: float, M: float, N: float) -> bool:
    return L < M + N and M < L + N and N < L + M


def all_positive(system: ThreeSum) -> bool:
    """True when every component of the solution is strictly positive."""
    return _all_positive(system.L, system.M, system.N)


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


def _deviation(solution: tuple, measured: tuple, closed_form: tuple, scale: float) -> float:
    """The worst |solution - value| over the (x, y, z) triples of `measured`
    and `closed_form`, a NaN kept, over `scale`."""
    x, y, z = solution
    (gx, gy, gz), (cx, cy, cz) = measured[0], closed_form
    worst = _worst((abs(x - gx), abs(y - gy), abs(z - gz), abs(x - cx), abs(y - cy), abs(z - cz)))
    for ox, oy, oz in measured[1:]:
        worst = _worst((worst, abs(x - ox), abs(y - oy), abs(z - oz)))
    return worst / scale


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


def _squares(f: tuple, exact: tuple, trig: tuple) -> tuple:
    """The squares reading's values (see _report) from a frame and the pair areas (R, T, S)."""
    a2, b2, c2 = f[SIDE_SQUARES]
    solution = _solve(a2, b2, c2)
    positive, cls = _all_positive(a2, b2, c2), f[CLASSIFICATION]
    acute = None if cls.kind == "right" else positive == cls.is_acute
    return solution, trig, positive, acute, _deviation(solution, (exact,), trig, f[AREA_SCALE])


def interpret_squares(t: Triangle, tol: float = TOLERANCE) -> InterpretationReport:
    """(L, M, N) = squared sides; the solution must be the pair areas (R, T, S)."""
    m = t.metrics
    exact = (panel_area_exact("R", t), panel_area_exact("T", t), panel_area_exact("S", t))
    values = _squares(t.frame, exact,
                      (panel_area_trig("R", m), panel_area_trig("T", m), panel_area_trig("S", m)))
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


def _sides(f: tuple, lengths: tuple) -> tuple:
    """The sides reading's values (see _report) from a frame and the tangent lengths at C, B, A."""
    a, b, c = f[SIDES]
    s = f[SEMIPERIMETER]
    solution = _solve(a, b, c)
    closed = (s - c, s - b, s - a)
    smallest = min(solution)
    undecided = abs(smallest) <= math.ldexp(SIDES_BUDGET * max(a, b, c), -53)
    return (solution, closed, None if undecided else smallest > 0, None,
            _deviation(solution, (lengths,), closed, f[LENGTH_SCALE]))


def interpret_sides(inc: IncircleData, tol: float = TOLERANCE) -> InterpretationReport:
    """(L, M, N) = sides; the solution must be the incircle's tangent lengths.

    x = s - c (tangent length at C), y = s - b (at B), z = s - a (at A).
    Positivity is the strict triangle inequality, so it holds in exact
    arithmetic. In floats a needle's tangent length can round to zero or
    below, so a sign is decided only beyond the rounding budget
    SIDES_BUDGET * u * max side; within it `all_positive` is None.
    """
    m, lengths = inc.triangle.metrics, inc.tangent_lengths
    measured = (lengths["C"], lengths["B"], lengths["A"])
    values = _sides(inc.triangle.frame, measured)
    return _report(
        "sides", (m.a, m.b, m.c),
        {"x": "tangent length at C", "y": "tangent length at B", "z": "tangent length at A"},
        (measured,), values, m.classification, values[2], tol)


def _angles(f: tuple, splits: tuple) -> tuple:
    """The angles reading's values (see _report) from a frame and two (x, y, z) split triples."""
    alpha, beta, gamma = f[ANGLES]
    solution = _solve(alpha, beta, gamma)
    closed = (math.pi / 2.0 - gamma, math.pi / 2.0 - beta, math.pi / 2.0 - alpha)
    positive, cls = _all_positive(alpha, beta, gamma), f[CLASSIFICATION]
    acute = None if cls.kind == "right" else positive == cls.is_acute
    return solution, closed, positive, acute, _deviation(solution, splits, closed, 1.0)


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
    values = _angles(circ.triangle.frame, measured)
    return _report(
        "angles", (m.alpha, m.beta, m.gamma),
        {"x": "split over side c", "y": "split over side b", "z": "split over side a"},
        measured, values, m.classification, values[3], tol)
