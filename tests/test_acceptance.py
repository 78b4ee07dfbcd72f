"""End-to-end acceptance checks, one test per contract item.

Each test prints a single PASS/FAIL line (visible with pytest -rA or -s)
and asserts the same condition, so the suite doubles as a checklist.
"""

import math
import random
import time
import xml.etree.ElementTree as ET

import pytest

from cuoco.circles import circumcircle, incircle
from cuoco.cli import random_triangle
from cuoco.cosine_law import cos_from_sides, euclid_defect, verify_cosine_identity
from cuoco.decomposition import (
    build,
    derive_cosine_theorem,
    panel_area_exact,
    shoelace,
)
from cuoco.figures import KINDS, FigureSpec, construction, render
from cuoco.geometry import (
    cross,
    dot,
    Point,
    Triangle,
    triangle_from_sides,
)
from cuoco.three_sum import (
    ThreeSum,
    all_positive,
    interpret_angles,
    interpret_sides,
    interpret_squares,
    solve,
)

from conftest import eliminate

SAMPLE_SIZE = 10_000
SEED = 20260822


def check(ok: bool, line: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {line}")
    assert ok, line


@pytest.fixture(scope="module")
def sample():
    rng = random.Random(SEED)
    return [random_triangle(rng) for _ in range(SAMPLE_SIZE)]


def test_cosine_identity_on_bulk_sample(sample):
    worst = 0.0
    start = time.perf_counter()
    for t in sample:
        m = t.metrics
        residuals = verify_cosine_identity(m)
        worst = max(worst, max(abs(r) for r in residuals) / max(m.a**2, m.b**2, m.c**2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    check(
        ok,
        f"cosine identity on {len(sample)} random triangles: "
        f"worst residual {worst:.3e} (tol 1e-9), {elapsed:.2f}s (limit 5s)",
    )


def test_panel_pair_equivalence_from_quads(sample):
    worst = 0.0
    kinds = set()
    negative_pairs = 0
    extras = [
        triangle_from_sides(3.0, 4.0, 5.0),
        triangle_from_sides(3.0, 4.0, 5.0 * (1.0 + 1e-9)),
        triangle_from_sides(3.0, 4.0, 5.0 * (1.0 - 1e-9)),
        triangle_from_sides(2.0, 3.0, 4.0),
        triangle_from_sides(1.0, 1.0, 1.0),
    ]
    for t in sample + extras:
        d = build(t)
        m = d.metrics
        kinds.add(m.classification.kind)
        if min(d.pair_areas.R, d.pair_areas.S, d.pair_areas.T) < 0:
            negative_pairs += 1
        r1, r2, s1, s2, t1, t2 = (shoelace(panel.quad) for panel in d.panels)
        for first, second in ((r1, r2), (s1, s2), (t1, t2)):
            worst = max(worst, abs(first - second) / max(1.0, m.a**2, m.b**2, m.c**2))
        if worst > 1e-9:
            break
    ok = worst <= 1e-9 and {"acute", "obtuse", "right"} <= kinds and negative_pairs > 0
    check(
        ok,
        f"constructed panel quads match in pairs: worst delta {worst:.3e} "
        f"(tol 1e-9), shapes covered {sorted(kinds)}, "
        f"{negative_pairs} triangles with a negative pair",
    )


def test_exact_square_sums_on_integer_grid():
    rng = random.Random(SEED + 1)
    produced = 0
    exact = True
    while produced < SAMPLE_SIZE:
        coords = [rng.randint(-20, 20) for _ in range(6)]
        a, b, c = (
            Point(coords[0], coords[1]),
            Point(coords[2], coords[3]),
            Point(coords[4], coords[5]),
        )
        if cross(b - a, c - a) == 0:
            continue
        t = Triangle(A=a, B=b, C=c)
        produced += 1
        r = panel_area_exact("R", t)
        s = panel_area_exact("S", t)
        u = panel_area_exact("T", t)
        a_sq = dot(t.B - t.C, t.B - t.C)
        b_sq = dot(t.C - t.A, t.C - t.A)
        c_sq = dot(t.A - t.B, t.A - t.B)
        if r + u != a_sq or r + s != b_sq or s + u != c_sq:
            exact = False
            break
    check(
        exact and produced == SAMPLE_SIZE,
        f"pair areas sum to squared sides exactly on {produced} "
        "integer-coordinate triangles (coordinates in [-20, 20])",
    )


def test_projection_defect_identity_and_sign(sample):
    worst = 0.0
    signs_ok = True
    for t in sample:
        m = t.metrics
        for vertex, angle, opp in (("A", m.alpha, m.a), ("B", m.beta, m.b), ("C", m.gamma, m.c)):
            defect, residual = euclid_defect(t, at_vertex=vertex)
            worst = max(worst, abs(residual) / (opp * opp))
            cosine = math.cos(angle)
            if abs(cosine) > 1e-9 and (defect > 0) != (cosine > 0):
                signs_ok = False
    ok = worst <= 1e-9 and signs_ok
    check(
        ok,
        f"twice-projection defect closes the squared-side identity: worst "
        f"residual {worst:.3e} relative to the opposite square (tol 1e-9), "
        f"sign always matches the vertex angle",
    )


def test_three_sum_solution_reconstruction():
    rng = random.Random(SEED + 2)
    worst = 0.0
    positivity_ok = True
    saw_negative_component = False
    for _ in range(SAMPLE_SIZE):
        L = rng.uniform(-100.0, 100.0)
        M = rng.uniform(-100.0, 100.0)
        N = rng.uniform(-100.0, 100.0)
        system = ThreeSum(L, M, N)
        sol = solve(system)
        scale = max(1.0, abs(L), abs(M), abs(N))
        res = (sol.x + sol.y - L, sol.x + sol.z - M, sol.y + sol.z - N)
        worst = max(worst, max(abs(r) for r in res) / scale)
        smallest = min(sol.as_tuple())
        if smallest < 0:
            saw_negative_component = True
        if abs(smallest) > 1e-12 * scale:
            if all_positive(system) != (smallest > 0):
                positivity_ok = False
    ok = worst <= 1e-12 and positivity_ok and saw_negative_component
    check(
        ok,
        f"closed-form solutions reconstruct their sums: worst residual "
        f"{worst:.3e} (tol 1e-12) over {SAMPLE_SIZE} systems incl. negative "
        f"components; positivity test agrees outside the 1e-12 band",
    )


def test_positivity_matches_acuteness(sample):
    exceptions = 0
    considered = 0
    for t in sample:
        m = t.metrics
        cosines = (math.cos(m.alpha), math.cos(m.beta), math.cos(m.gamma))
        if min(abs(v) for v in cosines) <= 1e-9:
            continue
        considered += 1
        acute = min(cosines) > 0
        squares_report = interpret_squares(t)
        angles_report = interpret_angles(circumcircle(t))
        if squares_report.all_positive != acute or angles_report.all_positive != acute:
            exceptions += 1
        if not (squares_report.passed and angles_report.passed):
            exceptions += 1
    ok = exceptions == 0 and considered > 0
    check(
        ok,
        f"all-positive solutions coincide with acute triangles for the "
        f"squared-side and angle readings: {exceptions} exceptions in "
        f"{considered} triangles (right-angle band 1e-9 excluded)",
    )


def test_tangent_lengths_measured_vs_closed_form(sample):
    worst = 0.0
    sums_worst = 0.0
    for t in sample:
        m = t.metrics
        data = incircle(t)
        closed = {"A": m.s - m.a, "B": m.s - m.b, "C": m.s - m.c}
        scale = max(1.0, m.s)
        for v, value in closed.items():
            worst = max(worst, abs(data.tangent_lengths[v] - value) / scale)
        for side, (p, q) in (("a", ("B", "C")), ("b", ("C", "A")), ("c", ("A", "B"))):
            total = data.tangent_lengths[p] + data.tangent_lengths[q]
            side_len = {"a": m.a, "b": m.b, "c": m.c}[side]
            sums_worst = max(sums_worst, abs(total - side_len) / max(1.0, side_len))
    ok = worst <= 1e-9 and sums_worst <= 1e-9
    check(
        ok,
        f"incircle tangent lengths: measured vs s-a form worst {worst:.3e}, "
        f"adjacent sums vs sides worst {sums_worst:.3e} (tol 1e-9)",
    )


def test_circumcircle_vertex_splits(sample):
    worst = 0.0
    sum_worst = 0.0
    for t in sample:
        m = t.metrics
        opposite_angle = {
            ("A", "B"): m.gamma, ("B", "A"): m.gamma,
            ("B", "C"): m.alpha, ("C", "B"): m.alpha,
            ("C", "A"): m.beta, ("A", "C"): m.beta,
        }
        angle_at = {"A": m.alpha, "B": m.beta, "C": m.gamma}
        splits = circumcircle(t).splits
        for v, row in splits.items():
            total = 0.0
            for w, value in row.items():
                worst = max(worst, abs(value - (math.pi / 2.0 - opposite_angle[(v, w)])))
                total += value
            sum_worst = max(sum_worst, abs(total - angle_at[v]))
    right = circumcircle(triangle_from_sides(3.0, 4.0, 5.0)).splits
    zero_split_ok = abs(right["A"]["B"]) <= 1e-12 and abs(right["B"]["A"]) <= 1e-12
    obtuse = circumcircle(triangle_from_sides(2.0, 3.0, 4.0)).splits
    negative_split_ok = obtuse["A"]["B"] < 0 and obtuse["B"]["A"] < 0
    ok = worst <= 1e-9 and sum_worst <= 1e-9 and zero_split_ok and negative_split_ok
    check(
        ok,
        f"circumcenter splits vertex angles into right-angle complements: "
        f"worst vs closed form {worst:.3e}, worst angle-sum {sum_worst:.3e} "
        f"(tol 1e-9); right triangle yields a zero split, obtuse a negative one",
    )


def test_frozen_reference_values():
    failures = []

    d = build(triangle_from_sides(2.0, 3.0, 4.0))
    got = (d.pair_areas.R, d.pair_areas.S, d.pair_areas.T)
    if got != pytest.approx((-1.5, 10.5, 5.5), abs=1e-12):
        failures.append(f"pair areas of the 2-3-4 triangle: {got}")
    if cos_from_sides(2.0, 3.0, 4.0) != pytest.approx(-0.25, abs=1e-15):
        failures.append("cosine opposite the longest side of 2-3-4")

    sol = solve(ThreeSum(4.0, 9.0, 16.0)).as_tuple()
    if sol != pytest.approx((-1.5, 5.5, 10.5), abs=1e-15):
        failures.append(f"solution of L,M,N = 4,9,16: {sol}")
    if sol != pytest.approx(eliminate(4.0, 9.0, 16.0), abs=1e-12):
        failures.append("closed form disagrees with the elimination oracle on 4,9,16")

    right = build(triangle_from_sides(3.0, 4.0, 5.0))
    got = (right.pair_areas.R, right.pair_areas.S, right.pair_areas.T)
    if got != pytest.approx((0.0, 16.0, 9.0), abs=1e-12):
        failures.append(f"pair areas of the 3-4-5 triangle: {got}")

    inc = incircle(triangle_from_sides(3.0, 4.0, 5.0))
    lengths = (inc.tangent_lengths["A"], inc.tangent_lengths["B"], inc.tangent_lengths["C"])
    if lengths != pytest.approx((3.0, 2.0, 1.0), abs=1e-12):
        failures.append(f"3-4-5 tangent lengths: {lengths}")
    if inc.radius != pytest.approx(1.0, abs=1e-12):
        failures.append(f"3-4-5 inradius: {inc.radius}")

    circ = circumcircle(triangle_from_sides(3.0, 4.0, 5.0))
    if (circ.center.x, circ.center.y, circ.radius) != pytest.approx((1.5, 2.0, 2.5), abs=1e-12):
        failures.append("3-4-5 circumcircle")

    angles = interpret_angles(circumcircle(triangle_from_sides(2.0, 3.0, 4.0)))
    if angles.solution.x != pytest.approx(-0.2526802551420787, abs=1e-12):
        failures.append(f"negative angle split of 2-3-4: {angles.solution.x}")

    sides_reading = interpret_sides(incircle(triangle_from_sides(2.0, 3.0, 4.0)))
    if sides_reading.solution.as_tuple() != pytest.approx((0.5, 1.5, 2.5), abs=1e-12):
        failures.append("tangent-length solution of 2-3-4")

    trace = derive_cosine_theorem(build(triangle_from_sides(2.0, 3.0, 4.0)))
    if any(step.value != pytest.approx(4.0, abs=1e-12) for step in trace.steps):
        failures.append("equal-area chain on 2-3-4")

    check(not failures, "frozen reference values all reproduce" if not failures
          else f"frozen reference values: {'; '.join(failures)}")


def test_figures_deterministic_and_well_formed():
    triangles = {
        "equilateral": triangle_from_sides(1.0, 1.0, 1.0),
        "right": triangle_from_sides(3.0, 4.0, 5.0),
        "obtuse": triangle_from_sides(2.0, 3.0, 4.0),
    }
    expected_counts = {
        "euclid_defect": {"polygon": 2, "line": 1, "text": 4},
        "cuoco": {"path": 3, "polygon": 7, "line": 3, "text": 9},
        "cuoco_pairs": {"path": 3, "polygon": 7, "line": 3, "text": 9},
        "cuoco_obtuse": {"path": 3, "polygon": 7, "line": 3, "text": 9},
        "incircle": {"polygon": 1, "circle": 5, "text": 7},
        "circumcircle": {"polygon": 1, "circle": 2, "line": 3, "text": 4},
    }
    ns = "{http://www.w3.org/2000/svg}"
    problems = []
    for kind in KINDS:
        for name, t in triangles.items():
            first = render(construction(kind, t), FigureSpec(kind=kind))
            second = render(construction(kind, t), FigureSpec(kind=kind))
            if first != second:
                problems.append(f"{kind}/{name} render not reproducible")
                continue
            root = ET.fromstring(first)
            group = root.find(f"{ns}g")
            counts: dict[str, int] = {}
            for el in group.iter():
                tag = el.tag.removeprefix(ns)
                counts[tag] = counts.get(tag, 0) + 1
            for tag, want in expected_counts[kind].items():
                if counts.get(tag, 0) != want:
                    problems.append(f"{kind}/{name}: {tag} x{counts.get(tag, 0)} != {want}")
    check(
        not problems,
        "figure rendering is byte-deterministic and structurally stable "
        "across 6 kinds x 3 triangles" if not problems else "; ".join(problems),
    )
