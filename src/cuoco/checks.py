"""The catalogue of checks: every invariant the package verifies, in slots.

`_rows(f)` computes a triangle's checks from its frame into SLOTS fixed
slots, each slot's |residual| / scale, divided where the residual is
formed, and names the slots skipped (defect_sign near a right angle, a
positivity check whose reading's flag is None). The one table, `RECORDS`,
lists the records the slots make, in order, as (check, item, number of
slots); `item` is the vertex, pair class or side a record is about, or None.

`verify` reads that vector as it comes; `fuzz` merges the vectors of many
triangles by position (`cli.run_fuzz`), keeping a NaN. `entries` turns the
merged vector and the skip counts into every check's entry, in `NAMES`
order (checks about the same items interleave in `RECORDS`, item by item):
a record of several slots takes the largest of them, and a check reports
its worst record. A record passes when |residual| / scale <= tol, so a NaN
fails.

Every construction and Euclid defect is read from the triangle's one frame,
of which the builders are views (no decomposition, circle or report record is
built), beside the angles' cosines, the trig pair areas and the three readings.
"""

from __future__ import annotations

from itertools import accumulate
from math import cos, isfinite, sqrt

from . import circles, cosine_law, decomposition, three_sum
from .geometry import NonFiniteCoordinate, _worst

# (check, item, slots) of each record, in record order.
RECORDS = (
    ("cosine_identity", None, 3), ("euclid_defect", "A", 1), ("defect_sign", "A", 1),
    ("euclid_defect", "B", 1), ("defect_sign", "B", 1), ("euclid_defect", "C", 1),
    ("defect_sign", "C", 1), ("pair_equivalence", None, 3), ("trig_vs_exact", "R", 1),
    ("trig_vs_exact", "S", 1), ("trig_vs_exact", "T", 1), ("square_sums", None, 3),
    ("similarity", "A", 1), ("similarity", "B", 1), ("similarity", "C", 1),
    ("derivation", None, 4), ("squares_interpretation", None, 1), ("squares_positivity", None, 1),
    ("sides_interpretation", None, 1), ("sides_positivity", None, 1),
    ("angles_interpretation", None, 1), ("angles_positivity", None, 1),
    ("tangent_lengths", None, 3), ("incircle_radius", "a", 1), ("tangent_inside", "a", 1),
    ("incircle_radius", "b", 1), ("tangent_inside", "b", 1), ("incircle_radius", "c", 1),
    ("tangent_inside", "c", 1), ("circumradius", None, 3), ("vertex_splits", "A", 2),
    ("split_sums", "A", 1), ("vertex_splits", "B", 2), ("split_sums", "B", 1),
    ("vertex_splits", "C", 2), ("split_sums", "C", 1),
)
NAMES = tuple(dict.fromkeys(check for check, _, _ in RECORDS))

# (check, item, first slot, end slot) of each record; each slot's record; each
# check's (item, first slot, end slot) and slots; the slots a triangle can
# skip, defect_sign's at A, B, C and the positivity checks'.
_ENDS = tuple(accumulate(count for _, _, count in RECORDS))
_SPANS = tuple((check, item, end - count, end)
               for (check, item, count), end in zip(RECORDS, _ENDS))
SLOTS = _ENDS[-1]
OWNERS = tuple(span for span in _SPANS for _ in range(span[2], span[3]))
_RECORDS_OF = {name: [span[1:] for span in _SPANS if span[0] == name] for name in NAMES}
COLUMNS = {name: [slot for _, start, end in spans for slot in range(start, end)]
           for name, spans in _RECORDS_OF.items()}
_SKIPPABLE = (*COLUMNS["defect_sign"], *(COLUMNS[name + "_positivity"][0]
                                         for name in ("squares", "sides", "angles")))


def entries(worst, skips, count: int, tol: float) -> dict:
    """Every check's entry, in NAMES order, over `count` triangles: `worst`
    holds each slot's largest |residual| / scale (not read for a slot that
    every triangle skipped), and `skips[slot]` how many skipped it. An entry is {evaluated, skipped, max_residual,
    worst_item, passed}: the records evaluated and skipped, the worst record's
    value and item (the first of equal ones, or the first NaN), and whether
    it passed. A check skipped on every record has no worst and passes."""
    report = {}
    for name, spans in _RECORDS_OF.items():
        evaluated = skipped = 0
        value = item = None
        for record_item, start, end in spans:
            misses = skips[start]  # only a one-slot record skips
            skipped += misses
            if misses == count:
                continue
            evaluated += count - misses
            record = _worst(worst[start:end])
            if value is None or value == value and not record <= value:  # a NaN stays
                value, item = record, record_item
        report[name] = {"evaluated": evaluated, "skipped": skipped, "max_residual": value,
                        "worst_item": item, "passed": value is None or value <= tol}
    return report


def _rows(f: tuple) -> tuple:
    """The slots of the triangle of a frame: (each slot's |residual| / scale,
    the skipped slots, the trigonometric pair areas R, S, T)."""
    # Rounding in the area identities grows with the largest squared side: `scale`.
    (a, b, c, alpha, beta, gamma, s, _, cos_a, cos_b, cos_c, a2, b2, c2, scale, length_scale,
     classification, ax, ay, bx, by, cx, cy, _, _, _, _, _, _, _, _, _, _, _, _,
     _, _, _, _, S, T, R, _, _, _, _, _, _, _, _, _,
     at_a, defect_a, at_b, defect_b, at_c, defect_c,
     _, _, _, _, _, _, _, _, _, _, _, _, _, _, _, _, _, _, r1, r2, s1, s2, t1, t2,
     _, _, similar_a, scale_a, _, _, similar_b, scale_b, _, _, similar_c, scale_c,
     ox, oy, radius, t_a, t_b, t_c, pax, pay, pbx, pby, pcx, pcy, length_a, length_b, length_c,
     centre_x, centre_y, _, _, circumradius, a_b, a_c, b_c, b_a, c_a, c_b,
     _, _, _, _, _, chain_1, chain_2, chain_3, chain_4) = f
    cos_alpha, cos_beta, cos_gamma = cos(alpha), cos(beta), cos(gamma)
    r_a, r_b, r_c = cosine_law._identity_residuals(a, b, c, a2, b2, c2, cos_alpha, cos_beta,
                                                   cos_gamma)
    # The quads sit in absolute coordinates, where products overflow first.
    if not isfinite(r1 + r2 + s1 + s2 + t1 + t2):
        raise NonFiniteCoordinate("coordinates overflow: the panel quad areas are not finite")
    # The pair areas R, S, T by both routes: the legs' dots and the trig forms.
    trig = trig_r, trig_s, trig_t = decomposition._trig_areas(a, b, c, cos_alpha, cos_beta,
                                                              cos_gamma)
    kind = classification.kind
    squares = three_sum._squares(a2, b2, c2, kind, R, T, S, trig_r, trig_t, trig_s, scale)
    circles._check_centre(ox, oy, "incentre")
    sides = three_sum._sides(a, b, c, s, length_c, length_b, length_a, length_scale)
    circles._check_centre(centre_x, centre_y, "circumcentre")
    angles = three_sum._angles(alpha, beta, gamma, kind, a_b, a_c, b_c, b_a, c_a, c_b)
    x, y, z = sides[1]
    # Each distance from a centre is sqrt(dx * dx + dy * dy), as `norm` forms
    # it (not math.hypot, whose last bit can differ).
    dax, day, dbx, dby, dcx, dcy = ox - pax, oy - pay, ox - pbx, oy - pby, ox - pcx, oy - pcy
    radius_scale = radius if radius > 1.0 else 1.0
    # Each vertex's offset from the circumcentre.
    ax, ay, bx, by = centre_x - ax, centre_y - ay, centre_x - bx, centre_y - by
    cx, cy = centre_x - cx, centre_y - cy
    circumradius_scale = circumradius if circumradius > 1.0 else 1.0
    # The two splits at a vertex: each is pi/2 minus the angle at the far end
    # of its side, and they sum to the vertex's angle.
    split_x, split_y, split_z = angles[1]
    # Each slot's |residual| / scale, the cosine identity's over max side^2; the
    # readings' max_residual comes divided. A positivity slot reads the flag its
    # reading's verdict reads: the sides reading's sign, the others' acute_iff_positive.
    # A tangent point's slot is how far its param lies outside [0, 1].
    square = max(a2, b2, c2)
    values = [
        abs(r_a) / square, abs(r_b) / square, abs(r_c) / square,
        abs(defect_a) / scale, 0.0 if (at_a > 0) == (cos_a > 0) else 1.0,
        abs(defect_b) / scale, 0.0 if (at_b > 0) == (cos_b > 0) else 1.0,
        abs(defect_c) / scale, 0.0 if (at_c > 0) == (cos_c > 0) else 1.0,
        abs(r1 - r2) / scale, abs(s1 - s2) / scale, abs(t1 - t2) / scale,
        abs(R - trig_r) / scale, abs(S - trig_s) / scale, abs(T - trig_t) / scale,
        abs(R + T - a2) / scale, abs(R + S - b2) / scale, abs(S + T - c2) / scale,
        abs(similar_a) / scale_a, abs(similar_b) / scale_b, abs(similar_c) / scale_c,
        abs(chain_1) / scale, abs(chain_2) / scale, abs(chain_3) / scale, abs(chain_4) / scale,
        squares[4], 0.0 if squares[3] else 1.0, sides[4], 0.0 if sides[2] else 1.0,
        angles[4], 0.0 if angles[3] else 1.0, abs(length_a - z) / length_scale,
        abs(length_b - y) / length_scale, abs(length_c - x) / length_scale,
        abs(sqrt(dax * dax + day * day) - radius) / radius_scale,
        -t_a if t_a < 0.0 else 0.0 if t_a <= 1.0 else t_a - 1.0,
        abs(sqrt(dbx * dbx + dby * dby) - radius) / radius_scale,
        -t_b if t_b < 0.0 else 0.0 if t_b <= 1.0 else t_b - 1.0,
        abs(sqrt(dcx * dcx + dcy * dcy) - radius) / radius_scale,
        -t_c if t_c < 0.0 else 0.0 if t_c <= 1.0 else t_c - 1.0,
        abs(sqrt(ax * ax + ay * ay) - circumradius) / circumradius_scale,
        abs(sqrt(bx * bx + by * by) - circumradius) / circumradius_scale,
        abs(sqrt(cx * cx + cy * cy) - circumradius) / circumradius_scale,
        abs(a_b - split_x), abs(a_c - split_y), abs(a_b + a_c - alpha), abs(b_c - split_z),
        abs(b_a - split_x), abs(b_c + b_a - beta), abs(c_a - split_y), abs(c_b - split_z),
        abs(c_a + c_b - gamma),
    ]
    # A defect's sign is read only beyond 1e-12 of a right angle, tighter than
    # RIGHT_ANGLE_BAND, which would skip more vertices.
    kept = (abs(cos_a) > 1e-12, abs(cos_b) > 1e-12, abs(cos_c) > 1e-12, squares[3] is not None,
            sides[2] is not None, angles[3] is not None)
    skipped = [] if all(kept) else [slot for slot, keep in zip(_SKIPPABLE, kept) if not keep]
    return values, skipped, trig
