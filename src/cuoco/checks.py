"""The catalogue of checks: every invariant the package verifies, as rows.

`rows(t)` yields `(check, item, residual, scale, detail)` for one triangle,
check by check in `NAMES` order (records of neighbouring checks interleave
where they share a loop). A record passes when |residual| <= tol * scale.
`item` is the vertex, pair class or side a record is about, or None for a
whole-triangle check. `detail` is the tuple of values `verify` prints for
the record, or None for a check that `verify` reports, as `fuzz` reports
every check, by its worst |residual| / scale.

Each construction is made once per triangle: the metrics, the pair and
panel quad areas (read from the triangle's frame; the decomposition is
never built), the incircle and the circumcircle. A record that folds
several values takes their `_worst`, so a NaN among them is kept and fails.
"""

from __future__ import annotations

from . import circles, cosine_law, decomposition, three_sum
from .geometry import OPPOSITE_SIDE, VERTICES, Triangle, norm, _worst

NAMES = (
    "cosine_identity", "euclid_defect", "defect_sign", "pair_equivalence", "trig_vs_exact",
    "square_sums", "similarity", "derivation",
    "squares_interpretation", "squares_positivity", "sides_interpretation", "sides_positivity",
    "angles_interpretation", "angles_positivity",
    "tangent_lengths", "incircle_radius", "tangent_inside", "circumradius", "vertex_splits",
    "split_sums",
)


def rows(t: Triangle):
    """Yield every check's records for one triangle; see the module docstring."""
    m = t.metrics
    a2, b2, c2 = m.a * m.a, m.b * m.b, m.c * m.c
    # Rounding in the area identities grows with the largest squared side.
    scale = max(1.0, a2, b2, c2)

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
    areas = {pair: decomposition.panel_area_exact(pair, t) for pair in decomposition.PAIR_CLASSES}
    for pair, exact in areas.items():
        trig = decomposition.panel_area_trig(pair, m)
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
    squares_rep = three_sum.interpret_squares(t)
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

    lengths, closed = inc.tangent_lengths, circles.tangent_lengths(t)
    yield ("tangent_lengths", None, _worst((abs(lengths["A"] - closed["A"]),
                                            abs(lengths["B"] - closed["B"]),
                                            abs(lengths["C"] - closed["C"]))),
           max(1.0, m.a, m.b, m.c), None)
    for side in circles.SIDE_ENDPOINTS:
        foot, tparam = inc.tangent_points[side], inc.tangent_params[side]
        yield ("incircle_radius", side, norm(inc.center - foot) - inc.radius,
               max(1.0, inc.radius), None)
        yield "tangent_inside", side, _worst((-tparam, tparam - 1.0)), 1.0, None

    center, radius = circ.center, circ.radius
    yield ("circumradius", None, _worst((abs(norm(center - t.A) - radius),
                                         abs(norm(center - t.B) - radius),
                                         abs(norm(center - t.C) - radius))), max(1.0, radius), None)
    closed_splits = circles.closed_form_splits(m)
    angle_at = {"A": m.alpha, "B": m.beta, "C": m.gamma}
    for v, (nxt, prv) in OPPOSITE_SIDE.items():  # the order of each splits[v]
        measured, closed = circ.splits[v], closed_splits[v]
        yield ("vertex_splits", v,
               _worst((abs(measured[nxt] - closed[nxt]), abs(measured[prv] - closed[prv]))), 1.0,
               None)
        yield "split_sums", v, sum(measured.values()) - angle_at[v], 1.0, None
