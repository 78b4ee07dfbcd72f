"""The catalogue of checks: every invariant the package verifies, as rows.

`rows(t)` returns the list of `(check, item, residual, scale, detail)`
records of one triangle, check by check in `NAMES` order (neighbouring
checks about the same items interleave, item by item), from its frame;
`fuzz` runs `_rows` on frames it makes no Triangle of. A record passes
when |residual| / scale <= tol. `item` is the vertex, pair class or side a
record is about, or None for a whole-triangle check. `detail` is the tuple
of values `verify` prints for the record, or None for a check that
`verify` reports, as `fuzz` reports every check, by its worst
|residual| / scale.

Each construction is computed once per triangle, in plain floats read from
the frame (which holds the metrics, the legs' dots and the feet), by the
value functions behind its public builder: cos(alpha), cos(beta) and
cos(gamma), the panel quad areas (the decomposition is never built), the
trigonometric pair areas, the incircle and the circumcircle, and the three
readings (whose closed forms the tangent-length and split checks read). No
report record is built. A record that folds several values takes their
`_worst`, so a NaN among them is kept and fails.
"""

from __future__ import annotations

from math import cos, sqrt

from . import circles, cosine_law, decomposition, three_sum
from .geometry import COORDS, DOTS, METRICS, VERTICES, Triangle, _worst

NAMES = (
    "cosine_identity", "euclid_defect", "defect_sign", "pair_equivalence", "trig_vs_exact",
    "square_sums", "similarity", "derivation",
    "squares_interpretation", "squares_positivity", "sides_interpretation", "sides_positivity",
    "angles_interpretation", "angles_positivity",
    "tangent_lengths", "incircle_radius", "tangent_inside", "circumradius", "vertex_splits",
    "split_sums",
)


def rows(t: Triangle) -> list:
    """Every check's records for one triangle; see the module docstring."""
    return _rows(t.frame)


def _rows(f: tuple) -> list:
    """Every check's records for the triangle of a frame."""
    # Rounding in the area identities grows with the largest squared side: `scale`.
    (_, _, _, alpha, beta, gamma, _, _, cos_a, cos_b, cos_c, a2, b2, c2, scale, length_scale,
     _) = f[METRICS]
    cos_alpha, cos_beta, cos_gamma = cos(alpha), cos(beta), cos(gamma)

    r_a, r_b, r_c = residuals = cosine_law._identity_residuals(f, cos_alpha, cos_beta, cos_gamma)
    records = [("cosine_identity", None, _worst((abs(r_a), abs(r_b), abs(r_c))), max(a2, b2, c2),
                (residuals,))]
    for v, cos_v, pair in zip(VERTICES, (cos_a, cos_b, cos_c), cosine_law._defects(f)):
        defect, residual = pair
        records.append(("euclid_defect", v, residual, scale, pair))
        # Tighter than RIGHT_ANGLE_BAND, which would skip more vertices.
        if abs(cos_v) > 1e-12:
            records.append(("defect_sign", v, 0.0 if (defect > 0) == (cos_v > 0) else 1.0, 1.0,
                            None))

    quads = decomposition._finite_quad_areas(f)
    r1, r2, s1, s2, t1, t2 = quads
    # The pair areas R, S, T by both routes: the legs' dots and the trig forms.
    S, T, R = f[DOTS]
    trig_r, trig_s, trig_t = decomposition._trig_areas(f, cos_alpha, cos_beta, cos_gamma)
    # The squares reading's components are R, T, S.
    squares = three_sum._squares(f, (R, T, S), (trig_r, trig_t, trig_s))
    records += [
        ("pair_equivalence", None, _worst((abs(r1 - r2), abs(s1 - s2), abs(t1 - t2))), scale,
         quads),
        ("trig_vs_exact", "R", R - trig_r, scale, (R, trig_r)),
        ("trig_vs_exact", "S", S - trig_s, scale, (S, trig_s)),
        ("trig_vs_exact", "T", T - trig_t, scale, (T, trig_t)),
        ("square_sums", None, _worst((abs(R + T - a2), abs(R + S - b2), abs(S + T - c2))), scale,
         None),
    ]
    for v in VERTICES:
        ch, ck, residual, similarity_scale = decomposition._similarity(f, v)
        records.append(("similarity", v, residual, similarity_scale, (ch, ck, residual)))
    values, max_deviation = decomposition._chain(f, quads, S)
    records.append(("derivation", None, max_deviation, scale, (values, max_deviation)))

    ox, oy, radius, (t_a, t_b, t_c), points, (length_a, length_b, length_c) = circles._incircle(f)
    # The sides reading's components are the tangent lengths at C, B, A.
    sides = three_sum._sides(f, (length_c, length_b, length_a))
    centre_x, centre_y, circumradius, near, far = circles._circumcircle(f)
    angles = three_sum._angles(f, (near, far))
    # The readings' max_residual is already divided by their scales. Each
    # positivity record reads the flag its reading's verdict reads: the sign
    # of the sides reading, and acute_iff_positive of the other two.
    for name, reading, flag in (("squares", squares, squares[3]), ("sides", sides, sides[2]),
                                ("angles", angles, angles[3])):
        records.append((name + "_interpretation", None, reading[4], 1.0, None))
        if flag is not None:
            records.append((name + "_positivity", None, 0.0 if flag else 1.0, 1.0, None))

    x, y, z = sides[1]
    # Each distance from a centre is sqrt(dx * dx + dy * dy), as `norm` forms
    # it (not math.hypot, whose last bit can differ).
    (pax, pay), (pbx, pby), (pcx, pcy) = points
    dax, day, dbx, dby, dcx, dcy = ox - pax, oy - pay, ox - pbx, oy - pby, ox - pcx, oy - pcy
    radius_scale = max(1.0, radius)
    # Each vertex's offset from the circumcentre.
    ax, ay, bx, by, cx, cy = f[COORDS]
    ax, ay, bx, by = centre_x - ax, centre_y - ay, centre_x - bx, centre_y - by
    cx, cy = centre_x - cx, centre_y - cy
    # The two splits at a vertex: each is pi/2 minus the angle at the far end
    # of its side, and they sum to the vertex's angle.
    split_x, split_y, split_z = angles[1]
    a_b, a_c, b_c = near
    b_a, c_a, c_b = far
    records += [
        ("tangent_lengths", None,
         _worst((abs(length_a - z), abs(length_b - y), abs(length_c - x))), length_scale, None),
        ("incircle_radius", "a", sqrt(dax * dax + day * day) - radius, radius_scale, None),
        ("tangent_inside", "a", _worst((-t_a, t_a - 1.0)), 1.0, None),
        ("incircle_radius", "b", sqrt(dbx * dbx + dby * dby) - radius, radius_scale, None),
        ("tangent_inside", "b", _worst((-t_b, t_b - 1.0)), 1.0, None),
        ("incircle_radius", "c", sqrt(dcx * dcx + dcy * dcy) - radius, radius_scale, None),
        ("tangent_inside", "c", _worst((-t_c, t_c - 1.0)), 1.0, None),
        ("circumradius", None, _worst((abs(sqrt(ax * ax + ay * ay) - circumradius),
                                       abs(sqrt(bx * bx + by * by) - circumradius),
                                       abs(sqrt(cx * cx + cy * cy) - circumradius))),
         max(1.0, circumradius), None),
        ("vertex_splits", "A", _worst((abs(a_b - split_x), abs(a_c - split_y))), 1.0, None),
        ("split_sums", "A", a_b + a_c - alpha, 1.0, None),
        ("vertex_splits", "B", _worst((abs(b_c - split_z), abs(b_a - split_x))), 1.0, None),
        ("split_sums", "B", b_c + b_a - beta, 1.0, None),
        ("vertex_splits", "C", _worst((abs(c_a - split_y), abs(c_b - split_z))), 1.0, None),
        ("split_sums", "C", c_a + c_b - gamma, 1.0, None),
    ]
    return records
