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
from .geometry import (TOLERANCE, Classification, GeometryError, Triangle, _Frozen, _Record,
                       _is_finite, _worst)


class ThreeSum(_Frozen):
    """Right-hand sides of x + y = L, x + z = M, y + z = N."""

    __slots__ = _fields = ("L", "M", "N")

    def __init__(self, L: float, M: float, N: float) -> None:
        try:  # a finite float sum means every term is finite
            finite = math.isfinite(0.0 + L + M + N)
        except OverflowError:  # 0.0 + an integer too large for a float
            finite = False
        if not finite:  # a bad term, or finite terms whose sum overflows
            for value in (L, M, N):
                if not _is_finite(value):
                    raise GeometryError(f"system inputs must be finite, got {value!r}")
        self._store(L, M, N)


class Solution(_Record):
    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        self.x, self.y, self.z = x, y, z

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def solve(system: ThreeSum) -> Solution:
    # Halves first: halving is exact, so this is (L + M - N) / 2 bit for bit
    # unless a sum would overflow or a half is subnormal.
    L, M, N = system.L / 2.0, system.M / 2.0, system.N / 2.0
    x, y, z = (L + M) - N, (L + N) - M, (M + N) - L
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise GeometryError(f"the solution overflows a float: x={x}, y={y}, z={z}")
    return Solution(x=x, y=y, z=z)


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
    `classify` reads the triangle as right (a side cosine within
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


def _report(kind: str, system: ThreeSum, solution: Solution, mapping: dict[str, str],
            measured: tuple, closed_form: tuple, scale: float, positive: bool | None,
            classification: Classification, acute_iff_positive: bool | None,
            verdict_flag: bool | None, tol: float) -> InterpretationReport:
    """The body the three readings share. `measured` holds an (x, y, z) triple
    per measurement, the first reported as `geometric`. The worst
    |solution - value| over them and `closed_form`, a NaN kept, over `scale`
    is `max_residual`; the reading passes when that is within `tol` and
    `verdict_flag`, the flag its verdict reads, is not False."""
    x, y, z = solution.x, solution.y, solution.z
    (gx, gy, gz), (cx, cy, cz) = measured[0], closed_form
    worst = _worst((abs(x - gx), abs(y - gy), abs(z - gz), abs(x - cx), abs(y - cy), abs(z - cz)))
    for ox, oy, oz in measured[1:]:
        worst = _worst((worst, abs(x - ox), abs(y - oy), abs(z - oz)))
    max_residual = worst / scale
    return InterpretationReport(
        kind, system, solution, mapping, {"x": gx, "y": gy, "z": gz}, {"x": cx, "y": cy, "z": cz},
        max_residual, positive, classification, acute_iff_positive,
        max_residual <= tol and verdict_flag is not False)


def interpret_squares(t: Triangle, tol: float = TOLERANCE) -> InterpretationReport:
    """(L, M, N) = squared sides; the solution must be the pair areas (R, T, S)."""
    m = t.metrics
    system = ThreeSum(*m.side_squares)
    positive, cls = all_positive(system), m.classification
    acute = None if cls.kind == "right" else positive == cls.is_acute
    return _report(
        "squares", system, solve(system), {"x": "R", "y": "T", "z": "S"},
        ((panel_area_exact("R", t), panel_area_exact("T", t), panel_area_exact("S", t)),),
        (panel_area_trig("R", m), panel_area_trig("T", m), panel_area_trig("S", m)),
        m.area_scale, positive, cls, acute, verdict_flag=acute, tol=tol)


# Rounding budget on a tangent length, in units of u * max side with
# u = 2**-53. Each side is the square root of its leg's squared length; the
# leg's two components are rounded differences, so the side is off by at
# most 3u relative (2u from the squared, summed components after the square
# root halves them, u from the root itself). The solution's halves are
# exact; its sum and difference add u * max side each. 3/2 * 3 sides + 2 =
# 6.5, rounded up to 8 for the second-order terms.
SIDES_BUDGET = 8


def interpret_sides(inc: IncircleData, tol: float = TOLERANCE) -> InterpretationReport:
    """(L, M, N) = sides; the solution must be the incircle's tangent lengths.

    x = s - c (tangent length at C), y = s - b (at B), z = s - a (at A).
    Positivity is the strict triangle inequality, so it holds in exact
    arithmetic. In floats a needle's tangent length can round to zero or
    below, so a sign is decided only beyond the rounding budget
    SIDES_BUDGET * u * max side; within it `all_positive` is None.
    """
    m = inc.triangle.metrics
    a, b, c, s = m.a, m.b, m.c, m.s
    system = ThreeSum(a, b, c)
    sol = solve(system)
    smallest = min(sol.x, sol.y, sol.z)
    undecided = abs(smallest) <= math.ldexp(SIDES_BUDGET * max(a, b, c), -53)
    positive = None if undecided else smallest > 0
    lengths = inc.tangent_lengths
    return _report(
        "sides", system, sol,
        {"x": "tangent length at C", "y": "tangent length at B", "z": "tangent length at A"},
        ((lengths["C"], lengths["B"], lengths["A"]),), (s - c, s - b, s - a),
        m.length_scale, positive, m.classification, None, verdict_flag=positive, tol=tol)


def interpret_angles(circ: CircumcircleData, tol: float = TOLERANCE) -> InterpretationReport:
    """(L, M, N) = angles; the solution must be the circumcircle's splits.

    x = pi/2 - gamma appears at both ends of side c (the isosceles central
    triangle over AB), y = pi/2 - beta over side b, z = pi/2 - alpha over
    side a. Residuals are absolute: angles are already order one.
    """
    m = circ.triangle.metrics
    system = ThreeSum(m.alpha, m.beta, m.gamma)
    positive, cls = all_positive(system), m.classification
    acute = None if cls.kind == "right" else positive == cls.is_acute
    # Each component is realized twice; hold it against both measurements.
    at_a, at_b, at_c = circ.splits["A"], circ.splits["B"], circ.splits["C"]
    return _report(
        "angles", system, solve(system),
        {"x": "split over side c", "y": "split over side b", "z": "split over side a"},
        ((at_a["B"], at_a["C"], at_b["C"]), (at_b["A"], at_c["A"], at_c["B"])),
        (math.pi / 2.0 - m.gamma, math.pi / 2.0 - m.beta, math.pi / 2.0 - m.alpha),
        1.0, positive, cls, acute, verdict_flag=acute, tol=tol)
