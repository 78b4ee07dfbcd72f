"""The catalogue, `cuoco.checks._rows`: one frame per triangle, no report
record built, and the circle checks far from the origin."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from cuoco import checks, circles, cli, decomposition, geometry, three_sum
from cuoco.cli import main, random_triangle
from cuoco.cosine_law import euclid_defect
from cuoco.geometry import (CHAIN_DEVIATIONS, COORDS, DOTS, LEGS, QUAD_AREAS, SIDES, SQUARES,
                            VERTICES, Point, Triangle, foot_of_altitude, frame_getter,
                            triangle_from_sides)

from conftest import RATIONAL, records

AREA_SCALED = ("euclid_defect", "pair_equivalence", "trig_vs_exact", "square_sums", "derivation")


def test_one_frame_per_triangle(frame_calls):
    # Building a Triangle computes its frame; every builder, view and the
    # catalogue read it. Each command's one frame: test_cli's
    # test_defect_figure_computes_the_constructions_once.
    t = triangle_from_sides(2, 3, 4)
    assert len(frame_calls) == 1
    for v in VERTICES:
        foot_of_altitude(t, v), euclid_defect(t, v), decomposition.similarity_check(t, v)
    for pair in decomposition.PAIR_CLASSES:
        decomposition.panel_area_exact(pair, t)
    decomposition.derive_cosine_theorem(decomposition.build(t))
    three_sum.interpret_squares(t)
    three_sum.interpret_sides(circles.incircle(t))
    three_sum.interpret_angles(circles.circumcircle(t))
    checks._rows(t.frame)
    assert len(frame_calls) == 1


def test_one_construction_per_triangle(monkeypatch):
    # The catalogue reads the constructions from the Triangle's one frame:
    # it computes no frame of its own, and calls neither circle builder. On
    # a finite frame its one call into Python code is the readings' one pass:
    # no reading's report, no _solve and no centre check.
    t = random_triangle(random.Random(11))
    calls = {}
    for module, name in ((circles, "incircle"), (circles, "circumcircle"), (geometry, "_frame"),
                         (three_sum, "_readings"), (three_sum, "interpret_squares"),
                         (three_sum, "interpret_sides"), (three_sum, "interpret_angles"),
                         (three_sum, "_solve"), (circles, "_check_centre")):
        def counting(*args, _name=name, _original=getattr(module, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    checks._rows(t.frame)
    assert calls == {"_readings": 1}


RECORD_TYPES = (circles.IncircleData, circles.CircumcircleData, three_sum.InterpretationReport,
                three_sum.ThreeSum, three_sum.Solution, decomposition.SimilarityReport)


@pytest.fixture
def constructed(monkeypatch):
    """Type name -> how many records of that type of RECORD_TYPES were built:
    through the constructor, or through `_view` for a view."""
    counts = dict.fromkeys((cls.__name__ for cls in RECORD_TYPES), 0)
    for cls in RECORD_TYPES:
        if issubclass(cls, geometry._View):
            def viewing(value, _view=cls._view, _name=cls.__name__):
                counts[_name] += 1
                return _view(value)

            monkeypatch.setattr(cls, "_view", viewing)
            continue

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_fuzz_and_verify_build_no_report_record(capsys, constructed):
    # Both run the catalogue, which computes in plain floats.
    assert main(["fuzz", "--count", "200"]) == 0
    assert main(["verify", "--sides", "2,3,4"]) == 0
    capsys.readouterr()
    assert constructed == dict.fromkeys(constructed, 0)


@pytest.mark.parametrize("reading, circle", [("squares", None), ("sides", "IncircleData"),
                                             ("angles", "CircumcircleData")])
def test_solve_and_the_library_still_build_them(capsys, constructed, reading, circle):
    # The counting sees the builders: solve's own system and solution, then
    # the reading's, with the circle it reads; similarity_check's report.
    argv = ["solve", "--L", "4", "--M", "9", "--N", "16", "--interpret", reading, "--sides", "2,3,4"]
    assert main(argv) == 0
    capsys.readouterr()
    decomposition.similarity_check(triangle_from_sides(2, 3, 4), "A")
    expected = {**dict.fromkeys(constructed, 0), "ThreeSum": 2, "Solution": 2,
                "InterpretationReport": 1, "SimilarityReport": 1}
    if circle:
        expected[circle] = 1
    assert constructed == expected


def test_translation_far_out_keeps_the_splits_passing():
    # Metamorphic: moving a triangle 2^30 times its own size from the origin
    # changes no angle, so the angles reading and the splits still pass.
    rng = random.Random(30)
    for _ in range(200):
        t = random_triangle(rng)
        m = t.metrics
        distance = math.ldexp(max(m.a, m.b, m.c), 30)
        turn = 2.0 * math.pi * rng.random()
        offset = Point(distance * math.cos(turn), distance * math.sin(turn))
        far = Triangle(t.A + offset, t.B + offset, t.C + offset)
        for triangle in (t, far):
            for check, item, value in records(triangle.frame):
                if check in ("angles_interpretation", "vertex_splits"):
                    assert value <= 1e-9, (triangle, check, item, value)


@pytest.mark.parametrize("sides, floored", [((0.3, 0.5, 0.7), True), ((9.5, 10.0, 10.5), False)])
def test_area_and_length_records_carry_one_scale(sides, floored):
    # Below 1 the floors bind and both scales are 1; near 10 they are the
    # largest squared side and the largest side. Each slot is its residual,
    # read from the frame or the public API, over that scale, bit for bit.
    t = triangle_from_sides(*sides)
    m, f = t.metrics, t.frame
    area_scale = max(1.0, m.a * m.a, m.b * m.b, m.c * m.c)
    length_scale = max(1.0, m.a, m.b, m.c)
    assert (area_scale == length_scale == 1.0) == floored
    r1, r2, s1, s2, t1, t2 = f[QUAD_AREAS]
    S, T, R = f[DOTS]
    trig = [decomposition.panel_area_trig(pair, m) for pair in "RST"]
    a2, b2, c2 = m.side_squares
    lengths = circles.incircle(t).tangent_lengths
    residuals = {
        "euclid_defect": frame_getter("residual_A residual_B residual_C")(f),
        "pair_equivalence": (r1 - r2, s1 - s2, t1 - t2),
        "trig_vs_exact": [exact - area for exact, area in zip((R, S, T), trig)],
        "square_sums": (R + T - a2, R + S - b2, S + T - c2),
        "derivation": f[CHAIN_DEVIATIONS],
        "tangent_lengths": [lengths[v] - (m.s - side) for v, side in zip("ABC", f[SIDES])],
    }
    values = checks._rows(f)[0]
    for check, found in residuals.items():
        scale = length_scale if check == "tangent_lengths" else area_scale
        expected = [abs(r) / scale for r in found]
        assert repr([values[slot] for slot in checks.COLUMNS[check]]) == repr(expected), check
    assert set(residuals) == {*AREA_SCALED, "tangent_lengths"}


def test_every_scale_has_its_slots_dimension():
    # Scaling a triangle by 2^k scales each length by 2^k and each area by
    # 4^k, exactly, and leaves every |residual| / scale as it was, bit for
    # bit, once no max(1.0, .) floor binds: an inradius above 1 keeps every
    # side, product of sides and radius above 1. A slot divided by a scale
    # of the wrong dimension is off by a factor of 2^28 or more.
    rng, kept, inradius = random.Random(31), 0, frame_getter("inradius")
    while kept < 500:
        f = cli._sample(rng)
        if inradius(f) <= 2.0 ** -12:  # scaled by 2^12 below
            continue
        kept += 1
        rows = [repr(checks._rows(geometry._frame(*(math.ldexp(value, power)
                                                    for value in f[COORDS])))[:2])
                for power in (12, 40, 200)]
        assert rows[0] == rows[1] == rows[2], f[COORDS]


def _pinned_triangles():
    """The triangles of the report pins in tests/reports/, then 300 more
    random_triangles from a fixed seed."""
    for sides in ((2, 3, 4), (5, 3, 4), (3, 4, 5)):
        yield triangle_from_sides(*sides)
    for x1, y1, x2, y2, x3, y3 in ((3, 4, 0, 0, 3, 0), (0.3, 0.1, 1.7, 0.2, 0.4, 2.9),
                                   (0.5, 2.25, 3.5, -0.375, -1.75, 0.125)):
        yield Triangle(Point(x1, y1), Point(x2, y2), Point(x3, y3))
    rng = random.Random(7)  # fuzz --count 20 --seed 7
    for _ in range(20):
        yield random_triangle(rng)
    rng = random.Random(2017)
    for _ in range(300):
        yield random_triangle(rng)


# SHA-256 of repr((check, item, value)) over every record of the catalogue
# (conftest.records) for each triangle of _pinned_triangles, then of repr of
# the triangle's frame. fuzz reports only each check's worst value; the
# frame holds every value the residuals are formed from, so this pins each
# one's sign and last bit too.
RECORDS_DIGEST = "9df4371d88553b91e6e174cddea4070b5f35ec8fedf68ffd5d33084cb674ad64"


def test_records_match_pinned_digest():
    digest = hashlib.sha256()
    for t in _pinned_triangles():
        for record in records(t.frame):
            digest.update(repr(record).encode("utf-8"))
        digest.update(repr(t.frame).encode("utf-8"))
    assert digest.hexdigest() == RECORDS_DIGEST


def test_rational_input_stays_exact():
    # Fraction coordinates: the quantities built from the coordinates alone
    # (no square root) stay Fraction, and the Euclid defect identity holds
    # exactly. A float constant in that arithmetic would turn them to float.
    t = RATIONAL
    f = t.frame
    exact = [t.twice_area, *f[LEGS], *f[SQUARES], *f[DOTS]]
    for v in VERTICES:
        foot, tparam = foot_of_altitude(t, v)
        exact += [foot.x, foot.y, tparam]
    assert all(type(value) is Fraction for value in exact), exact
    for v in VERTICES:
        defect, residual = euclid_defect(t, v)
        assert type(defect) is Fraction and residual == 0 and type(residual) is Fraction
    # The whole catalogue runs; its last record is the split sum at C.
    assert records(t.frame)[-1][:2] == ("split_sums", "C")


def test_rational_quads_hold_the_pairs_exactly():
    # The shoelace areas halve by an integer 2, so Fraction quads stay
    # Fraction: each pair is equal and each square is the sum of its two
    # panels with ==, and pair_equivalence's residuals are exactly 0.
    f = RATIONAL.frame
    quads = r1, r2, s1, s2, t1, t2 = f[QUAD_AREAS]
    assert all(type(area) is Fraction for area in quads), quads
    assert (r1, s1, t1) == (r2, s2, t2)
    assert (r1 + t2, r2 + s1, s2 + t1) == f[SQUARES]
    # Each exact residual of 0 normalises to 0.0.
    values = checks._rows(f)[0]
    pairs = [values[slot] for slot in checks.COLUMNS["pair_equivalence"]]
    assert repr(pairs) == repr([0.0, 0.0, 0.0])
