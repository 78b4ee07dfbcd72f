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

`_rows` reads the triangle's one frame, which the builders are views of, by
the names `geometry.LAYOUT` declares, through one getter, `_READ`; it builds
no record, and takes the cosine identity's residuals, the trig pair areas and
the three readings from one call, `three_sum._readings`.
"""

from __future__ import annotations

from itertools import accumulate
from math import isfinite, sqrt

from . import circles, three_sum
from .geometry import NonFiniteCoordinate, frame_getter, _worst

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
# The frame values _rows reads, by their names in geometry.LAYOUT.
_READ = frame_getter(
    "alpha beta gamma cos_A cos_B cos_C a2 b2 c2 area_scale length_scale "
    "A_x A_y B_x B_y C_x C_y S T R defect_A residual_A defect_B residual_B defect_C residual_C R1 "
    "R2 S1 S2 T1 T2 similar_A scale_A similar_B scale_B similar_C scale_C I_x I_y inradius tan_a "
    "tan_b tan_c touch_a_x touch_a_y touch_b_x touch_b_y touch_c_x touch_c_y length_A length_B "
    "length_C O_x O_y circumradius A_B A_C B_C B_A C_A C_B deviation_1 deviation_2 deviation_3 "
    "deviation_4")


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
    # Rounding in the area identities grows with the largest squared side: `area_scale`.
    (alpha, beta, gamma, cos_A, cos_B, cos_C, a2, b2, c2, area_scale, length_scale, A_x, A_y, B_x,
     B_y, C_x, C_y, S, T, R, defect_A, residual_A, defect_B, residual_B, defect_C, residual_C, R1,
     R2, S1, S2, T1, T2, similar_A, scale_A, similar_B, scale_B, similar_C, scale_C, I_x, I_y,
     inradius, tan_a, tan_b, tan_c, touch_a_x, touch_a_y, touch_b_x, touch_b_y, touch_c_x,
     touch_c_y, length_A, length_B, length_C, O_x, O_y, circumradius, A_B, A_C, B_C, B_A, C_A, C_B,
     deviation_1, deviation_2, deviation_3, deviation_4) = _READ(f)
    # The quads sit in absolute coordinates, where products overflow first.
    if not isfinite(R1 + R2 + S1 + S2 + T1 + T2):
        raise NonFiniteCoordinate("coordinates overflow: the panel quad areas are not finite")
    # The readings' one pass. The slots read each reading's max_residual and the flag
    # its verdict reads, the tangent lengths' closed forms (x, y, z) = (s - c, s - b,
    # s - a) and the splits', each pi/2 minus the angle at the far end of its side.
    (r_a, r_b, r_c, trig_r, trig_s, trig_t, sq_x, sq_y, sq_z, _, _, _, _, squares_acute,
     squares_worst, _, _, _, x, y, z, sides_positive, _, sides_worst, _, _, _, split_x, split_y,
     split_z, _, angles_acute, angles_worst) = three_sum._readings(f)
    # A squares solution that is not finite raises as _solve does, then a circle
    # that is not (see circles._check_centre), the incentre first.
    if not isfinite(sq_x + sq_y + sq_z + I_x + I_y + O_x + O_y + circumradius):
        three_sum._solve(a2, b2, c2)
        circles._check_centre(I_x, I_y, "incentre")
        circles._check_centre(O_x, O_y, "circumcentre", circumradius)
    # Each distance from a centre is sqrt(dx * dx + dy * dy), as `norm` forms
    # it (not math.hypot, whose last bit can differ).
    dax, day, dbx, dby = I_x - touch_a_x, I_y - touch_a_y, I_x - touch_b_x, I_y - touch_b_y
    dcx, dcy = I_x - touch_c_x, I_y - touch_c_y
    radius_scale = inradius if inradius > 1.0 else 1.0
    # Each vertex's offset from the circumcentre.
    oax, oay, obx, oby = O_x - A_x, O_y - A_y, O_x - B_x, O_y - B_y
    ocx, ocy = O_x - C_x, O_y - C_y
    circumradius_scale = circumradius if circumradius > 1.0 else 1.0
    # Each slot's |residual| / scale, the cosine identity's over max side^2; the
    # readings' max_residual comes divided. A positivity slot reads the flag its
    # reading's verdict reads: the sides reading's sign, the others' acute_iff_positive.
    # A tangent point's slot is how far its param lies outside [0, 1].
    square = max(a2, b2, c2)
    values = [
        abs(r_a) / square, abs(r_b) / square, abs(r_c) / square,
        abs(residual_A) / area_scale, 0.0 if (defect_A > 0) == (cos_A > 0) else 1.0,
        abs(residual_B) / area_scale, 0.0 if (defect_B > 0) == (cos_B > 0) else 1.0,
        abs(residual_C) / area_scale, 0.0 if (defect_C > 0) == (cos_C > 0) else 1.0,
        abs(R1 - R2) / area_scale, abs(S1 - S2) / area_scale, abs(T1 - T2) / area_scale,
        abs(R - trig_r) / area_scale, abs(S - trig_s) / area_scale, abs(T - trig_t) / area_scale,
        abs(R + T - a2) / area_scale, abs(R + S - b2) / area_scale, abs(S + T - c2) / area_scale,
        abs(similar_A) / scale_A, abs(similar_B) / scale_B, abs(similar_C) / scale_C,
        abs(deviation_1) / area_scale, abs(deviation_2) / area_scale,
        abs(deviation_3) / area_scale, abs(deviation_4) / area_scale,
        squares_worst, 0.0 if squares_acute else 1.0, sides_worst, 0.0 if sides_positive else 1.0,
        angles_worst, 0.0 if angles_acute else 1.0, abs(length_A - z) / length_scale,
        abs(length_B - y) / length_scale, abs(length_C - x) / length_scale,
        abs(sqrt(dax * dax + day * day) - inradius) / radius_scale,
        -tan_a if tan_a < 0.0 else 0.0 if tan_a <= 1.0 else tan_a - 1.0,
        abs(sqrt(dbx * dbx + dby * dby) - inradius) / radius_scale,
        -tan_b if tan_b < 0.0 else 0.0 if tan_b <= 1.0 else tan_b - 1.0,
        abs(sqrt(dcx * dcx + dcy * dcy) - inradius) / radius_scale,
        -tan_c if tan_c < 0.0 else 0.0 if tan_c <= 1.0 else tan_c - 1.0,
        abs(sqrt(oax * oax + oay * oay) - circumradius) / circumradius_scale,
        abs(sqrt(obx * obx + oby * oby) - circumradius) / circumradius_scale,
        abs(sqrt(ocx * ocx + ocy * ocy) - circumradius) / circumradius_scale,
        abs(A_B - split_x), abs(A_C - split_y), abs(A_B + A_C - alpha), abs(B_C - split_z),
        abs(B_A - split_x), abs(B_C + B_A - beta), abs(C_A - split_y), abs(C_B - split_z),
        abs(C_A + C_B - gamma),
    ]
    # A defect's sign is read only beyond 1e-12 of a right angle, tighter than
    # RIGHT_ANGLE_BAND, which would skip more vertices.
    kept = (abs(cos_A) > 1e-12, abs(cos_B) > 1e-12, abs(cos_C) > 1e-12,
            squares_acute is not None, sides_positive is not None, angles_acute is not None)
    skipped = [] if all(kept) else [slot for slot, keep in zip(_SKIPPABLE, kept) if not keep]
    return values, skipped, (trig_r, trig_s, trig_t)
