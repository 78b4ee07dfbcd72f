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
from .geometry import Classification, GeometryError, Triangle, _Frozen, _Record


class ThreeSum(_Frozen):
    """Right-hand sides of x + y = L, x + z = M, y + z = N."""

    __slots__ = _fields = ("L", "M", "N")

    def __init__(self, L: float, M: float, N: float) -> None:
        for value in (L, M, N):
            if not math.isfinite(value):
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


def residuals(system: ThreeSum, sol: Solution) -> tuple[float, float, float]:
    return (
        sol.x + sol.y - system.L,
        sol.x + sol.z - system.M,
        sol.y + sol.z - system.N,
    )


class InterpretationReport(_Record):
    """Cross-check of the algebraic solution against measured geometry.

    `geometric` and `closed_form` are two independent routes to the values
    the solution components are supposed to equal, keyed by component.
    `max_residual` is the worst normalized deviation of the solution from
    either route. `all_positive` is None when the sides reading cannot tell
    a tangent length's sign within rounding. `acute_iff_positive` records
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


def _component_residual(sol: Solution, route: dict[str, float], scale: float) -> float:
    return max(abs(sol.x - route["x"]), abs(sol.y - route["y"]), abs(sol.z - route["z"])) / scale


def _positivity_flag(system: ThreeSum, cls: Classification) -> bool | None:
    if cls.kind == "right":
        return None
    return all_positive(system) == cls.is_acute


def interpret_squares(t: Triangle, tol: float = 1e-9) -> InterpretationReport:
    """(L, M, N) = squared sides; the solution must be the pair areas (R, T, S)."""
    m = t.metrics
    system = ThreeSum(m.a * m.a, m.b * m.b, m.c * m.c)
    sol = solve(system)
    geometric = {
        "x": panel_area_exact("R", t),
        "y": panel_area_exact("T", t),
        "z": panel_area_exact("S", t),
    }
    closed_form = {
        "x": panel_area_trig("R", m),
        "y": panel_area_trig("T", m),
        "z": panel_area_trig("S", m),
    }
    scale = max(1.0, system.L, system.M, system.N)
    max_residual = max(
        _component_residual(sol, geometric, scale),
        _component_residual(sol, closed_form, scale),
    )
    cls = m.classification
    flag = _positivity_flag(system, cls)
    return InterpretationReport(
        kind="squares",
        system=system,
        solution=sol,
        mapping={"x": "R", "y": "T", "z": "S"},
        geometric=geometric,
        closed_form=closed_form,
        max_residual=max_residual,
        all_positive=all_positive(system),
        classification=cls,
        acute_iff_positive=flag,
        passed=max_residual <= tol and flag is not False,
    )


# Rounding budget on a tangent length, in units of u * max side with
# u = 2**-53. Each side is the square root of its leg's squared length; the
# leg's two components are rounded differences, so the side is off by at
# most 3u relative (2u from the squared, summed components after the square
# root halves them, u from the root itself). The solution's halves are
# exact; its sum and difference add u * max side each. 3/2 * 3 sides + 2 =
# 6.5, rounded up to 8 for the second-order terms.
SIDES_BUDGET = 8


def interpret_sides(inc: IncircleData, tol: float = 1e-9) -> InterpretationReport:
    """(L, M, N) = sides; the solution must be the incircle's tangent lengths.

    x = s - c (tangent length at C), y = s - b (at B), z = s - a (at A).
    Positivity is the strict triangle inequality, so it holds in exact
    arithmetic. In floats a needle's tangent length can round to zero or
    below, so a sign is decided only beyond the rounding budget
    SIDES_BUDGET * u * max side; within it `all_positive` is None.
    """
    m = inc.triangle.metrics
    system = ThreeSum(m.a, m.b, m.c)
    sol = solve(system)
    geometric = {
        "x": inc.tangent_lengths["C"],
        "y": inc.tangent_lengths["B"],
        "z": inc.tangent_lengths["A"],
    }
    closed_form = {"x": m.s - m.c, "y": m.s - m.b, "z": m.s - m.a}
    scale = max(1.0, m.a, m.b, m.c)
    max_residual = max(
        _component_residual(sol, geometric, scale),
        _component_residual(sol, closed_form, scale),
    )
    smallest = min(sol.x, sol.y, sol.z)
    undecided = abs(smallest) <= math.ldexp(SIDES_BUDGET * max(m.a, m.b, m.c), -53)
    positive = None if undecided else smallest > 0
    return InterpretationReport(
        kind="sides",
        system=system,
        solution=sol,
        mapping={"x": "tangent length at C", "y": "tangent length at B", "z": "tangent length at A"},
        geometric=geometric,
        closed_form=closed_form,
        max_residual=max_residual,
        all_positive=positive,
        classification=m.classification,
        acute_iff_positive=None,
        passed=max_residual <= tol and positive is not False,
    )


def interpret_angles(circ: CircumcircleData, tol: float = 1e-9) -> InterpretationReport:
    """(L, M, N) = angles; the solution must be the circumcircle's splits.

    x = pi/2 - gamma appears at both ends of side c (the isosceles central
    triangle over AB), y = pi/2 - beta over side b, z = pi/2 - alpha over
    side a. Residuals are absolute: angles are already order one.
    """
    m = circ.triangle.metrics
    system = ThreeSum(m.alpha, m.beta, m.gamma)
    sol = solve(system)
    # Each component is realized twice; hold it against both measurements.
    at_a, at_b, at_c = circ.splits["A"], circ.splits["B"], circ.splits["C"]
    geometric = {"x": at_a["B"], "y": at_a["C"], "z": at_b["C"]}
    closed_form = {
        "x": math.pi / 2.0 - m.gamma,
        "y": math.pi / 2.0 - m.beta,
        "z": math.pi / 2.0 - m.alpha,
    }
    x, y, z = sol.x, sol.y, sol.z
    max_residual = max(
        abs(x - at_a["B"]), abs(x - at_b["A"]), abs(x - closed_form["x"]),
        abs(y - at_a["C"]), abs(y - at_c["A"]), abs(y - closed_form["y"]),
        abs(z - at_b["C"]), abs(z - at_c["B"]), abs(z - closed_form["z"]),
    )
    cls = m.classification
    flag = _positivity_flag(system, cls)
    return InterpretationReport(
        kind="angles",
        system=system,
        solution=sol,
        mapping={"x": "split over side c", "y": "split over side b", "z": "split over side a"},
        geometric=geometric,
        closed_form=closed_form,
        max_residual=max_residual,
        all_positive=all_positive(system),
        classification=cls,
        acute_iff_positive=flag,
        passed=max_residual <= tol and flag is not False,
    )
