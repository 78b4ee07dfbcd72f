"""The catalogue, `cuoco.checks.rows`: one construction of each kind per
triangle, and the circle checks far from the origin."""

import math
import random

import pytest

from cuoco import checks, circles
from cuoco.cli import random_triangle
from cuoco.geometry import Point, Triangle, triangle_from_sides

AREA_SCALED = ("euclid_defect", "pair_equivalence", "trig_vs_exact", "square_sums", "derivation")


def test_one_construction_per_triangle(monkeypatch):
    t = random_triangle(random.Random(11))
    calls = {}
    for name in ("incircle", "circumcircle", "_circumcenter"):
        def counting(*args, _name=name, _original=getattr(circles, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(circles, name, counting)
    list(checks.rows(t))
    assert calls == {"incircle": 1, "circumcircle": 1, "_circumcenter": 1}


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
            for check, item, residual, scale, _ in checks.rows(triangle):
                if check in ("angles_interpretation", "vertex_splits"):
                    assert abs(residual) <= 1e-9 * scale, (triangle, check, item, residual)


@pytest.mark.parametrize("sides, floored", [((0.3, 0.5, 0.7), True), ((9.5, 10.0, 10.5), False)])
def test_area_and_length_records_carry_one_scale(sides, floored):
    # Below 1 the floors bind and both scales are 1; near 10 they are the
    # largest squared side and the largest side.
    t = triangle_from_sides(*sides)
    m = t.metrics
    area_scale = max(1.0, m.a * m.a, m.b * m.b, m.c * m.c)
    length_scale = max(1.0, m.a, m.b, m.c)
    assert (area_scale == length_scale == 1.0) == floored
    seen = set()
    for check, item, _, scale, _ in checks.rows(t):
        if check in AREA_SCALED:
            assert scale == area_scale, (check, item)
        elif check == "tangent_lengths":
            assert scale == length_scale
        else:
            continue
        seen.add(check)
    assert seen == {*AREA_SCALED, "tangent_lengths"}
