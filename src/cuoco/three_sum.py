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
from .geometry import (ANGLES, CLASSIFICATION, SIDE_SQUARES, SIDES, TOLERANCE, GeometryError,
                       Triangle, frame_getter, _Record, _is_finite)


class ThreeSum(_Record):
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


# The frame values the readings read, by their names in geometry.LAYOUT.
_READ = frame_getter(
    "a b c alpha beta gamma s a2 b2 c2 area_scale length_scale classification S T R length_A "
    "length_B length_C A_B A_C B_C B_A C_A C_B")
_PAIR_AREAS = frame_getter("R T S")
# What the sides and angles readings report as measured: the tangent lengths
# at C, B, A, and one split of each component, which is realized twice and
# held against both splits in _readings.
_LENGTHS = frame_getter("length_C length_B length_A")
_SPLITS = frame_getter("A_B A_C B_C")
# Where each reading's nine values start in _readings' tuple.
_SQUARES, _SIDES, _ANGLES = 6, 15, 24

# Rounding budget on a tangent length, in units of u * max side with
# u = 2**-53. Each side is the square root of its leg's squared length; the
# leg's two components are rounded differences, so the side is off by at
# most 3u relative (2u from the squared, summed components after the square
# root halves them, u from the root itself). The solution's halves are
# exact; its sum and difference add u * max side each. 3/2 * 3 sides + 2 =
# 6.5, rounded up to 8 for the second-order terms.
SIDES_BUDGET = 8


def _readings(f: tuple) -> tuple:
    """The readings of the triangle of frame f in one pass, which raises only
    in math.cos of an infinite angle (no frame holds one): the cosine
    identity's residuals at A, B, C and the trig pair areas R, S, T (as
    verify_cosine_identity and panel_area_trig give them), then the nine
    values of the squares, sides and angles readings in turn: the solution
    (x, y, z) as _solve forms it, the closed form (x, y, z), all_positive,
    acute_iff_positive and max_residual, the worst deviation from the
    measured and the closed-form values over the reading's scale, a NaN kept
    (max() can drop a NaN, a sum of nonnegative terms cannot). A solution
    that is not finite is returned as it is; _solve on its terms raises."""
    (a, b, c, alpha, beta, gamma, s, a2, b2, c2, area_scale, length_scale, classification, S, T,
     R, length_A, length_B, length_C, A_B, A_C, B_C, B_A, C_A, C_B) = _READ(f)
    cos_alpha, cos_beta, cos_gamma = math.cos(alpha), math.cos(beta), math.cos(gamma)
    trig_r, trig_s, trig_t = a * b * cos_gamma, b * c * cos_alpha, a * c * cos_beta
    kind = classification.kind
    right, is_acute = kind == "right", kind == "acute"
    # (L, M, N) = squared sides against the pair areas (R, T, S), by the dots and by trig.
    hl, hm, hn = a2 / 2.0, b2 / 2.0, c2 / 2.0
    sq_x, sq_y, sq_z = (hl + hm) - hn, (hl + hn) - hm, (hm + hn) - hl
    sq_positive = a2 < b2 + c2 and b2 < a2 + c2 and c2 < a2 + b2
    d1, d2, d3 = abs(sq_x - R), abs(sq_y - T), abs(sq_z - S)
    d4, d5, d6 = abs(sq_x - trig_r), abs(sq_y - trig_t), abs(sq_z - trig_s)
    total = d1 + d2 + d3 + d4 + d5 + d6
    sq_worst = (max(d1, d2, d3, d4, d5, d6) if total == total else total) / area_scale
    # (L, M, N) = sides against the tangent lengths at C, B, A and s - c, s - b, s - a.
    hl, hm, hn = a / 2.0, b / 2.0, c / 2.0
    sd_x, sd_y, sd_z = (hl + hm) - hn, (hl + hn) - hm, (hm + hn) - hl
    sd_cx, sd_cy, sd_cz = s - c, s - b, s - a
    smallest = min(sd_x, sd_y, sd_z)
    undecided = abs(smallest) <= math.ldexp(SIDES_BUDGET * max(a, b, c), -53)
    d1, d2, d3 = abs(sd_x - length_C), abs(sd_y - length_B), abs(sd_z - length_A)
    d4, d5, d6 = abs(sd_x - sd_cx), abs(sd_y - sd_cy), abs(sd_z - sd_cz)
    total = d1 + d2 + d3 + d4 + d5 + d6
    sd_worst = (max(d1, d2, d3, d4, d5, d6) if total == total else total) / length_scale
    # (L, M, N) = angles against both splits of each component and pi/2 - gamma, ...
    hl, hm, hn = alpha / 2.0, beta / 2.0, gamma / 2.0
    an_x, an_y, an_z = (hl + hm) - hn, (hl + hn) - hm, (hm + hn) - hl
    half_pi = math.pi / 2.0
    an_cx, an_cy, an_cz = half_pi - gamma, half_pi - beta, half_pi - alpha
    an_positive = alpha < beta + gamma and beta < alpha + gamma and gamma < alpha + beta
    d1, d2, d3 = abs(an_x - A_B), abs(an_y - A_C), abs(an_z - B_C)
    d4, d5, d6 = abs(an_x - an_cx), abs(an_y - an_cy), abs(an_z - an_cz)
    d7, d8, d9 = abs(an_x - B_A), abs(an_y - C_A), abs(an_z - C_B)
    total = d1 + d2 + d3 + d4 + d5 + d6 + d7 + d8 + d9
    an_worst = max(d1, d2, d3, d4, d5, d6, d7, d8, d9) if total == total else total
    return (a2 - b2 - c2 + 2.0 * b * c * cos_alpha, b2 - a2 - c2 + 2.0 * a * c * cos_beta,
            c2 - a2 - b2 + 2.0 * a * b * cos_gamma, trig_r, trig_s, trig_t,
            sq_x, sq_y, sq_z, trig_r, trig_t, trig_s, sq_positive,
            None if right else sq_positive == is_acute, sq_worst,
            sd_x, sd_y, sd_z, sd_cx, sd_cy, sd_cz, None if undecided else smallest > 0, None,
            sd_worst, an_x, an_y, an_z, an_cx, an_cy, an_cz, an_positive,
            None if right else an_positive == is_acute, an_worst)


def _report(kind: str, terms: tuple, mapping: dict[str, str], geometric: tuple, f: tuple,
            start: int, tol: float) -> InterpretationReport:
    """The report of the reading of system `terms` whose nine values start at
    `start` in _readings(f), measured as `geometric`. It passes when max_residual
    <= tol and the flag its verdict reads (the sides reading's all_positive, the
    others' acute_iff_positive) is not False."""
    x, y, z, cx, cy, cz, positive, acute, max_residual = _readings(f)[start:start + 9]
    return InterpretationReport(
        kind, ThreeSum(*terms), Solution(x, y, z), mapping, dict(zip("xyz", geometric)),
        {"x": cx, "y": cy, "z": cz}, max_residual, positive, f[CLASSIFICATION], acute,
        max_residual <= tol and (positive if start == _SIDES else acute) is not False)


def interpret_squares(t: Triangle, tol: float = TOLERANCE) -> InterpretationReport:
    """(L, M, N) = squared sides; the solution must be the pair areas (R, T, S)."""
    return _report("squares", t.frame[SIDE_SQUARES], {"x": "R", "y": "T", "z": "S"},
                   _PAIR_AREAS(t.frame), t.frame, _SQUARES, tol)


def interpret_sides(inc: IncircleData, tol: float = TOLERANCE) -> InterpretationReport:
    """(L, M, N) = sides; the solution must be the incircle's tangent lengths.

    x = s - c (tangent length at C), y = s - b (at B), z = s - a (at A).
    Positivity is the strict triangle inequality, so it holds in exact
    arithmetic. In floats a needle's tangent length can round to zero or
    below, so a sign is decided only beyond the rounding budget
    SIDES_BUDGET * u * max side; within it `all_positive` is None.
    """
    f = inc.triangle.frame
    return _report("sides", f[SIDES], {"x": "tangent length at C", "y": "tangent length at B",
                                       "z": "tangent length at A"}, _LENGTHS(f), f, _SIDES, tol)


def interpret_angles(circ: CircumcircleData, tol: float = TOLERANCE) -> InterpretationReport:
    """(L, M, N) = angles; the solution must be the circumcircle's splits.

    x = pi/2 - gamma appears at both ends of side c (the isosceles central
    triangle over AB), y = pi/2 - beta over side b, z = pi/2 - alpha over
    side a. Residuals are absolute: angles are already order one.
    """
    f = circ.triangle.frame
    return _report("angles", f[ANGLES], {"x": "split over side c", "y": "split over side b",
                                         "z": "split over side a"}, _SPLITS(f), f, _ANGLES, tol)
