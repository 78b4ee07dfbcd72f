"""The catalogue of checks: every invariant the package verifies, as rows.

`rows(t)` yields `(check, item, residual, scale, detail)` for one triangle,
check by check in `NAMES` order (records of neighbouring checks interleave
where they share a loop). A record passes when |residual| / scale <= tol.
`item` is the vertex, pair class or side a record is about, or None for a
whole-triangle check. `detail` is the tuple of values `verify` prints for
the record, or None for a check that `verify` reports, as `fuzz` reports
every check, by its worst |residual| / scale.

Each construction is made once per triangle: the metrics, the panel quad
areas (read from the triangle's frame; the decomposition is never built),
the squares reading (whose two routes give the pair areas, exact and
trigonometric), the incircle and the circumcircle with their readings
(whose closed forms the tangent-length and split checks read). A record
that folds several values takes their `_worst`, so a NaN among them is
kept and fails.
"""

from __future__ import annotations

from math import sqrt

from . import circles, cosine_law, decomposition, three_sum
from .geometry import OPPOSITE_SIDE, VERTICES, Triangle, _worst

NAMES = (
    "cosine_identity", "euclid_defect", "defect_sign", "pair_equivalence", "trig_vs_exact",
    "square_sums", "similarity", "derivation",
    "squares_interpretation", "squares_positivity", "sides_interpretation", "sides_positivity",
    "angles_interpretation", "angles_positivity",
    "tangent_lengths", "incircle_radius", "tangent_inside", "circumradius", "vertex_splits",
    "split_sums",
)

# Vertex -> the component of the sides and angles readings that belongs to
# it: its tangent length, and pi/2 minus its angle.
_AT = {"A": "z", "B": "y", "C": "x"}


def rows(t: Triangle):
    """Yield every check's records for one triangle; see the module docstring."""
    m = t.metrics
    a2, b2, c2 = m.side_squares
    # Rounding in the area identities grows with the largest squared side.
    scale = m.area_scale

    residuals = cosine_law.verify_cosine_identity(m)
    yield "cosine_identity", None, _worst(map(abs, residuals)), max(a2, b2, c2), (residuals,)

    for v, cos_v in zip(VERTICES, m.cosines):
        defect, residual = cosine_law.euclid_defect(t, v)
        yield "euclid_defect", v, residual, scale, (defect, residual)
        # Tighter than RIGHT_ANGLE_BAND, which would skip more vertices.
        if abs(cos_v) > 1e-12:
            yield "defect_sign", v, 0.0 if (defect > 0) == (cos_v > 0) else 1.0, 1.0, None

    quads = decomposition._finite_quad_areas(t)
    r1, r2, s1, s2, t1, t2 = quads
    yield ("pair_equivalence", None, _worst((abs(r1 - r2), abs(s1 - s2), abs(t1 - t2))), scale,
           quads)
    # The squares reading holds each pair area by both routes, keyed by the
    # solution component its mapping names.
    squares_rep = three_sum.interpret_squares(t)
    component = {pair: x for x, pair in squares_rep.mapping.items()}
    areas = {pair: squares_rep.geometric[component[pair]] for pair in decomposition.PAIR_CLASSES}
    for pair, exact in areas.items():
        trig = squares_rep.closed_form[component[pair]]
        yield "trig_vs_exact", pair, exact - trig, scale, (exact, trig)
    R, S, T = areas.values()
    yield ("square_sums", None, _worst((abs(R + T - a2), abs(R + S - b2), abs(S + T - c2))),
           scale, None)
    for v in VERTICES:
        rep = decomposition.similarity_check(t, v)
        yield "similarity", v, rep.residual, rep.scale, (rep.ch, rep.ck, rep.residual)
    values, max_deviation = decomposition._chain(m, quads, S)
    yield "derivation", None, max_deviation, scale, (values, max_deviation)

    # The readings' max_residual is already divided by their scales.
    yield "squares_interpretation", None, squares_rep.max_residual, 1.0, None
    if squares_rep.acute_iff_positive is not None:
        yield ("squares_positivity", None, 0.0 if squares_rep.acute_iff_positive else 1.0,
               1.0, None)
    inc = circles.incircle(t)
    sides_rep = three_sum.interpret_sides(inc)
    yield "sides_interpretation", None, sides_rep.max_residual, 1.0, None
    if sides_rep.all_positive is not None:
        yield "sides_positivity", None, 0.0 if sides_rep.all_positive else 1.0, 1.0, None
    circ = circles.circumcircle(t)
    angles_rep = three_sum.interpret_angles(circ)
    yield "angles_interpretation", None, angles_rep.max_residual, 1.0, None
    if angles_rep.acute_iff_positive is not None:
        yield ("angles_positivity", None, 0.0 if angles_rep.acute_iff_positive else 1.0,
               1.0, None)

    yield ("tangent_lengths", None,
           _worst(abs(inc.tangent_lengths[v] - sides_rep.closed_form[x]) for v, x in _AT.items()),
           m.length_scale, None)
    # Each distance from a centre is sqrt(dx * dx + dy * dy), as `norm` forms
    # it (not math.hypot, whose last bit can differ).
    ox, oy = inc.center.x, inc.center.y
    radius = inc.radius
    radius_scale = max(1.0, radius)
    for side in circles.SIDE_ENDPOINTS:
        foot, tparam = inc.tangent_points[side], inc.tangent_params[side]
        dx, dy = ox - foot.x, oy - foot.y
        yield "incircle_radius", side, sqrt(dx * dx + dy * dy) - radius, radius_scale, None
        yield "tangent_inside", side, _worst((-tparam, tparam - 1.0)), 1.0, None

    ox, oy = circ.center.x, circ.center.y
    radius = circ.radius
    ax, ay, bx, by, cx, cy = ox - t.A.x, oy - t.A.y, ox - t.B.x, oy - t.B.y, ox - t.C.x, oy - t.C.y
    yield ("circumradius", None, _worst((abs(sqrt(ax * ax + ay * ay) - radius),
                                         abs(sqrt(bx * bx + by * by) - radius),
                                         abs(sqrt(cx * cx + cy * cy) - radius))),
           max(1.0, radius), None)
    # The split at v toward w is pi/2 minus the angle at the third vertex.
    complement = {v: angles_rep.closed_form[x] for v, x in _AT.items()}
    angles = angles_rep.system
    angle_at = {"A": angles.L, "B": angles.M, "C": angles.N}
    for v, (nxt, prv) in OPPOSITE_SIDE.items():  # the order of each splits[v]
        measured = circ.splits[v]
        yield ("vertex_splits", v,
               _worst((abs(measured[nxt] - complement[prv]), abs(measured[prv] - complement[nxt]))),
               1.0, None)
        yield "split_sums", v, sum(measured.values()) - angle_at[v], 1.0, None
