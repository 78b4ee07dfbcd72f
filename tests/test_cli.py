import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cuoco
from cuoco import checks, circles, cli, cosine_law, decomposition, figures, geometry, three_sum
from cuoco.cli import _worst, main, random_triangle, run_fuzz
from cuoco.geometry import Point, dot, triangle_from_sides

from conftest import circumcentre_budget


DEMO_OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"

# A thin triangle about 2e11 from the origin.
FAR_THIN = ("190233263674.5445,190233263674.5445,190233263674.54453,190233263674.5445,"
            "190233263674.5445,190233263674.5446")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_obtuse_triangle_report(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--sides", "2,3,4")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "cuoco-report/1"
        assert report["classification"] == {"kind": "obtuse", "vertex": "C"}
        assert report["pair_areas"] == [-1.5, 10.5, 5.5]
        assert report["passed"] is True
        assert report["checks"]["cosine_identity"]["passed"] is True

    def test_right_triangle_from_points(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--points", "3,4,0,0,3,0")
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == {"kind": "right", "vertex": "C"}
        assert report["pair_areas"][0] == 0  # R vanishes at the right angle

    def test_zero_pair_follows_right_angle_vertex(self, capsys):
        # Same 3-4-5 shape, points listed so the right angle sits at B:
        # the vanishing pair is then T (the B pair), not R.
        code, out, _ = run_cli(capsys, "verify", "--points", "0,0,3,0,3,4")
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == {"kind": "right", "vertex": "B"}
        assert report["pair_areas"] == [16, 9, 0]

    def test_invalid_sides_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--sides", "1,2,5")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_sides_and_points_conflict(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--sides", "2,3,4", "--points", "0,0,1,0,0,1")
        assert code == 2
        assert err != ""

    @pytest.mark.parametrize("triangle", [
        "--points=1e200,0,0,1e200,0,0",
        "--sides=1e300,1e300,1e300",
        f"--points={10**200},0,0,{10**200},0,0",  # exact integers, too large to square as floats
    ])
    def test_overflow_names_its_cause(self, capsys, triangle):
        code, out, err = run_cli(capsys, "verify", triangle)
        assert code == 2
        assert out == ""
        assert "overflow" in err

    def test_band_edge_reads_right_everywhere(self, capsys):
        # The cosine at C is about -6e-10: inside the one right-angle band.
        sides = "3,4,5.0000000015"
        _, out, _ = run_cli(capsys, "verify", "--sides", sides)
        assert json.loads(out)["classification"] == {"kind": "right", "vertex": "C"}
        for reading in ("squares", "sides", "angles"):
            _, out, _ = run_cli(
                capsys, "solve", "--L", "1", "--M", "2", "--N", "2",
                "--interpret", reading, "--sides", sides,
            )
            interpretation = json.loads(out)["interpretation"]
            assert interpretation["classification"] == {"kind": "right", "vertex": "C"}, reading

    def test_overflowing_quad_areas_exit_2(self, capsys):
        # Far from the origin the absolute quad areas overflow (inf - inf);
        # that is bad input, not a failed identity.
        code, out, err = run_cli(capsys, "verify", "--points=1e160,0,1.00000000000001e160,0,1e160,1e150")
        assert code == 2
        assert out == ""
        assert "coordinates overflow" in err and "panel quad areas" in err

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--sides", "2,3,4")
        _, second, _ = run_cli(capsys, "verify", "--sides", "2,3,4")
        assert first == second


class TestSolve:
    def test_plain_system(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--L", "3", "--M", "4", "--N", "5")
        assert code == 0
        report = json.loads(out)
        assert report["solution"] == {"x": 1.0, "y": 2.0, "z": 3.0}
        assert report["passed"] is True

    def test_symmetric_system(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--L", "1", "--M", "1", "--N", "1")
        assert code == 0
        report = json.loads(out)
        assert report["solution"] == {"x": 0.5, "y": 0.5, "z": 0.5}
        assert report["all_positive"] is True

    def test_mixed_sign_solution(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--L", "4", "--M", "9", "--N", "16")
        assert code == 0
        report = json.loads(out)
        assert report["solution"] == {"x": -1.5, "y": 5.5, "z": 10.5}

    def test_degrees_converted(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--L", "90", "--M", "90", "--N", "90", "--degrees")
        assert code == 0
        report = json.loads(out)
        x = report["solution"]["x"]
        assert x == pytest.approx(0.7853981633974483, abs=1e-12)

    def test_interpret_requires_triangle(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--L", "4", "--M", "9", "--N", "16", "--interpret", "squares")
        assert code == 2
        assert err != ""

    def test_interpret_squares_with_triangle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--L", "4", "--M", "9", "--N", "16",
            "--interpret", "squares", "--sides", "2,3,4",
        )
        assert code == 0
        report = json.loads(out)
        assert report["interpretation"]["kind"] == "squares"
        assert report["interpretation"]["passed"] is True

    def test_non_finite_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--L", "nan", "--M", "1", "--N", "2")
        assert code == 2

    def test_large_finite_input_gives_valid_json(self, capsys):
        # (L + M - N) / 2 overflows to inf at 1e308; JSON has no Infinity.
        code, out, _ = run_cli(capsys, "solve", "--L", "1e308", "--M", "1e308", "--N", "1e308")
        assert code == 0

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        report = json.loads(out, parse_constant=reject)
        assert report["solution"] == {"x": 5e307, "y": 5e307, "z": 5e307}

    def test_unrepresentable_solution_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--L=1.7e308", "--M=1.7e308", "--N=-1.7e308")
        assert code == 2
        assert out == ""
        assert "overflows" in err

    def test_records_print_as_their_fields(self):
        # Nested records become objects keyed by their fields, in field order.
        report = three_sum.interpret_squares(triangle_from_sides(3, 4, 5))
        printed = cli._rounded(report)
        assert list(printed) == list(type(report)._fields)
        assert printed["system"] == {"L": 9.0, "M": 16.0, "N": 25.0}
        assert list(printed["solution"]) == ["x", "y", "z"]
        assert printed["classification"] == {"kind": "right", "vertex": "C"}


class TestFigure:
    def test_writes_svg(self, capsys, tmp_path):
        out_file = tmp_path / "figure.svg"
        code, out, _ = run_cli(
            capsys, "figure", "--kind", "cuoco", "--sides", "2,3,4", "--out", str(out_file)
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("<svg")
        receipt = json.loads(out)
        assert receipt["schema"] == "cuoco-report/1"
        assert receipt["report"] == {"pair_areas": [-1.5, 10.5, 5.5]}

    def test_incircle_receipt_reports_tangent_lengths(self, capsys, tmp_path):
        out_file = tmp_path / "incircle.svg"
        code, out, _ = run_cli(
            capsys, "figure", "--kind", "incircle", "--sides", "3,4,5", "--out", str(out_file)
        )
        assert code == 0
        receipt = json.loads(out)
        assert receipt["report"]["tangent_lengths"] == {"A": 3.0, "B": 2.0, "C": 1.0}
        assert receipt["report"]["radius"] == 1.0
        assert receipt["report"]["center"] == [2.0, 1.0]

    def test_circumcircle_and_defect_receipts(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "figure", "--kind", "circumcircle", "--sides", "3,4,5",
            "--out", str(tmp_path / "c.svg"),
        )
        assert code == 0
        assert json.loads(out)["report"] == {"center": [1.5, 2.0], "radius": 2.5}
        # Canonical 3-4-5 placement puts the right angle at C, so the
        # defect at B is 2 * dot(A - B, C - B) = 2 * 9.
        code, out, _ = run_cli(
            capsys, "figure", "--kind", "euclid_defect", "--sides", "3,4,5",
            "--out", str(tmp_path / "d.svg"),
        )
        assert code == 0
        assert json.loads(out)["report"] == {"vertex": "B", "defect": 18.0}

    def test_file_content_deterministic(self, capsys, tmp_path):
        first = tmp_path / "one.svg"
        second = tmp_path / "two.svg"
        run_cli(capsys, "figure", "--kind", "incircle", "--sides", "3,4,5", "--out", str(first))
        run_cli(capsys, "figure", "--kind", "incircle", "--sides", "3,4,5", "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    # Each kind's receipt on --sides 2,3,4.
    RECEIPTS_2_3_4 = {
        "euclid_defect": {"vertex": "B", "defect": 11.0},
        "cuoco": {"pair_areas": [-1.5, 10.5, 5.5]},
        "cuoco_pairs": {"pair_areas": [-1.5, 10.5, 5.5]},
        "cuoco_obtuse": {"pair_areas": [-1.5, 10.5, 5.5]},
        "incircle": {"center": [1.5, 0.645497224368], "radius": 0.645497224368,
                     "tangent_lengths": {"A": 2.5, "B": 1.5, "C": 0.5}},
        "circumcircle": {"center": [1.0, 1.80739222823], "radius": 2.065591117977},
    }

    def test_every_kind_renders(self, capsys, tmp_path):
        assert tuple(self.RECEIPTS_2_3_4) == figures.KINDS
        for kind, receipt in self.RECEIPTS_2_3_4.items():
            out_file = tmp_path / f"{kind}.svg"
            code, out, _ = run_cli(
                capsys, "figure", "--kind", kind, "--sides", "2,3,4", "--out", str(out_file)
            )
            assert code == 0
            assert out_file.stat().st_size > 0
            assert json.loads(out)["report"] == receipt, kind

    def test_unwritable_path_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "figure.svg"
        code, _, err = run_cli(
            capsys, "figure", "--kind", "cuoco", "--sides", "2,3,4", "--out", str(target)
        )
        assert code == 2
        assert err != ""

    @pytest.mark.parametrize("kind", ["incircle"])
    def test_overflowing_centre_exit_2(self, capsys, tmp_path, kind):
        # A valid triangle far from the origin: its sides square fine, but
        # the incentre's formula multiplies absolute coordinates.
        code, out, err = run_cli(
            capsys, "figure", "--kind", kind,
            "--points=1e160,0,1.00000000000001e160,0,1e160,1e150",
            "--out", str(tmp_path / "c.svg"),
        )
        assert code == 2
        assert out == ""
        assert "overflow" in err

    def test_circumcircle_far_out_is_equidistant(self, capsys, tmp_path):
        # The circumcentre is found in A's frame, so this valid triangle far
        # from the origin, which once overflowed, has one.
        code, out, _ = run_cli(
            capsys, "figure", "--kind", "circumcircle",
            "--points=1e160,0,1.00000000000001e160,0,1e160,1e150",
            "--out", str(tmp_path / "c.svg"),
        )
        assert code == 0
        assert_equidistant(json.loads(out)["report"],
                           (1e160, 0), (1.00000000000001e160, 0), (1e160, 1e150))

    # demos/draw_figures.py draws these files from the same triangle.
    @pytest.mark.parametrize("name, options", [
        *((f"{kind}.svg", ("--kind", kind)) for kind in figures.KINDS),
        ("cuoco_pairs_compact.svg", ("--kind", "cuoco_pairs", "--no-labels", "--precision", "3")),
    ])
    def test_writes_the_committed_demo_figures(self, capsys, tmp_path, name, options):
        out_file = tmp_path / name
        code, _, _ = run_cli(capsys, "figure", *options, "--sides", "2,3,4", "--out", str(out_file))
        assert code == 0
        assert out_file.read_bytes() == (DEMO_OUTPUT / name).read_bytes()

    @pytest.mark.parametrize("option", [("--fill-palette", "1"), ("--stroke-palette", "1"),
                                        ("--omit-degenerate",)])
    def test_palette_and_omit_options_rejected(self, capsys, tmp_path, option):
        out_file = tmp_path / "figure.svg"
        code, _, err = run_cli(capsys, "figure", "--kind", "cuoco", "--sides", "2,3,4", *option,
                               "--out", str(out_file))
        assert code == 2
        assert "unrecognized arguments" in err
        assert not out_file.exists()

    def test_unknown_kind_rejected_by_parser(self, capsys):
        code, _, err = run_cli(
            capsys, "figure", "--kind", "bogus", "--sides", "2,3,4", "--out", "x.svg"
        )
        assert code == 2
        assert err != ""


class TestDegenerateArithmetic:
    """Valid input whose float arithmetic degenerates exits 2 with the cause."""

    @pytest.mark.parametrize("argv, cause", [
        # |AB|^2 underflows to zero while the cross product does not.
        (("verify", "--points=0,0,1e-170,0,0,1e10"), "underflows to zero"),
        (("figure", "--kind", "euclid_defect", "--points=0,0,1e-170,0,0,1e10"), "underflows to zero"),
    ], ids=["verify-underflow", "figure-underflow"])
    def test_degenerate_arithmetic_exit_2(self, capsys, tmp_path, argv, cause):
        if argv[0] == "figure":
            argv += ("--out", str(tmp_path / "x.svg"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert cause in err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("command", ["figure", "solve"])
    def test_far_thin_circumcentre_is_equidistant(self, capsys, tmp_path, command):
        # A determinant of absolute coordinates cancelled to zero here; the
        # triangle's own cross product does not. The centre's coordinates
        # round to the grid of floats near 2e11 (3e-5 apart, the triangle's
        # own size), but the splits are measured from its unrounded offset
        # from A, so the angles reading passes.
        argv = {
            "figure": ("figure", "--kind", "circumcircle", f"--points={FAR_THIN}",
                       "--out", str(tmp_path / "x.svg")),
            "solve": ("solve", "--L", "1", "--M", "1", "--N", "1", "--interpret", "angles",
                      f"--points={FAR_THIN}"),
        }[command]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        coords = [float(value) for value in FAR_THIN.split(",")]
        vertices = (coords[0:2], coords[2:4], coords[4:6])
        if command == "figure":
            receipt = json.loads(out)["report"]
        else:
            assert json.loads(out)["interpretation"]["passed"] is True
            data = circles.circumcircle(geometry.Triangle(*(Point(*v) for v in vertices)))
            receipt = {"center": [data.center.x, data.center.y], "radius": data.radius}
        assert_equidistant(receipt, *vertices)

    def test_far_circumcentre_splits_pass_verify(self, capsys):
        # A triangle of size 1e-8 at 3.56: splits measured from the rounded
        # centre, centre - v, were off by 1.1e-8 here and failed
        # angles_interpretation and vertex_splits.
        code, out, _ = run_cli(capsys, "verify", "--points=3.56101518335002,3.561015183002625,"
                               "3.5610151838895097,3.5610151721073136,3.561015181583827,"
                               "3.56101518463416")
        assert code == 0
        report = json.loads(out)
        assert report["checks"]["angles_interpretation"]["passed"] is True
        assert report["checks"]["vertex_splits"]["passed"] is True


def assert_equidistant(receipt, *vertices):
    """The receipt's circumcentre is as far from each vertex as its radius,
    within circumcentre_budget."""
    center, radius = Point(*receipt["center"]), receipt["radius"]
    budget = circumcentre_budget(center, radius)
    for v in vertices:
        assert abs(geometry.distance(center, Point(*v)) - radius) <= budget


class TestFuzz:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--count", "50", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["counterexample"] is None
        assert len(report["checks"]) == 20
        assert all(entry["passed"] for entry in report["checks"].values())

    def test_never_builds_the_decomposition(self, capsys, monkeypatch):
        t = triangle_from_sides(2, 3, 4)
        built = decomposition.build(t)
        trace = decomposition.derive_cosine_theorem(built)

        def refuse(*args):
            raise AssertionError("a check built the decomposition or derived the chain again")

        monkeypatch.setattr(decomposition, "build", refuse)
        monkeypatch.setattr(decomposition, "derive_cosine_theorem", refuse)
        code, out, _ = run_cli(capsys, "fuzz", "--count", "50")
        assert code == 0
        assert json.loads(out)["checks"]["derivation"]["passed"] is True
        code, out, _ = run_cli(capsys, "verify", "--sides", "2,3,4")
        assert code == 0
        report = json.loads(out)
        areas = built.pair_areas
        assert report["pair_areas"] == [areas.R, areas.S, areas.T] == [-1.5, 10.5, 5.5]
        derivation = report["checks"]["derivation"]
        assert derivation["passed"] is True
        assert derivation["steps"] == [
            {"expression": step.expression, "panels": list(step.panels), "value": step.value}
            for step in trace.steps
        ]
        assert (derivation["residual"], derivation["max_deviation"]) == (
            trace.residual, trace.max_deviation)

    def test_broken_chain_is_a_counterexample(self, capsys, monkeypatch):
        chain = decomposition._chain

        def broken(m, quad_areas, s_pair):
            values, _ = chain(m, quad_areas, s_pair)
            return values, math.nan

        monkeypatch.setattr(decomposition, "_chain", broken)
        code, out, _ = run_cli(capsys, "fuzz", "--count", "5", "--seed", "7")
        assert code == 1
        report = json.loads(out)
        assert report["counterexample"]["check"] == "derivation"
        assert report["checks"]["derivation"]["passed"] is False

    def test_seed_makes_output_reproducible(self, capsys):
        _, first, _ = run_cli(capsys, "fuzz", "--count", "40", "--seed", "11")
        _, second, _ = run_cli(capsys, "fuzz", "--count", "40", "--seed", "11")
        assert first == second

    def test_string_seed_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "fuzz", "--count", "1", "--seed", "fixed-degenerate-avoidance"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    # Near-needle triangles on which arccosine angles and a defect scaled
    # by the opposite side's square reported false counterexamples.
    @pytest.mark.parametrize("seed", ["227517880772879", "115808669789764",
                                      "255403330890855", "50708751109744"])
    def test_needle_triangles_pass(self, capsys, seed):
        code, out, _ = run_cli(capsys, "fuzz", "--count", "100", "--seed", seed)
        assert code == 0
        assert json.loads(out)["counterexample"] is None

    @pytest.mark.parametrize("command", [
        ("fuzz", "--count", "3"),
        ("verify", "--sides", "2,3,4"),
        ("solve", "--L", "3", "--M", "4", "--N", "5"),
    ])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "tiny"])
    def test_bad_tolerance_exit_2(self, capsys, command, tol):
        code, out, err = run_cli(capsys, *command, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "--tol" in err

    def test_defect_off_by_1e_8_scale_is_flagged(self, capsys, monkeypatch):
        exact = cosine_law.euclid_defect

        def corrupted(t, at_vertex):
            defect, residual = exact(t, at_vertex)
            m = t.metrics
            return defect, residual + 1e-8 * max(1.0, m.a * m.a, m.b * m.b, m.c * m.c)

        monkeypatch.setattr(cosine_law, "euclid_defect", corrupted)
        code, out, _ = run_cli(capsys, "fuzz", "--count", "5", "--seed", "7")
        assert code == 1
        assert json.loads(out)["counterexample"]["check"] == "euclid_defect"
        code, out, _ = run_cli(capsys, "verify", "--sides", "2,3,4")
        assert code == 1
        assert not any(entry["passed"] for entry in json.loads(out)["checks"]["euclid_defect"].values())

    def test_nan_residual_is_a_counterexample(self, capsys, monkeypatch):
        monkeypatch.setattr(cosine_law, "euclid_defect", lambda t, at_vertex: (1.0, math.nan))
        code, out, _ = run_cli(capsys, "fuzz", "--count", "5", "--seed", "7")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["counterexample"]["check"] == "euclid_defect"
        assert math.isnan(report["counterexample"]["residual"])
        entry = report["checks"]["euclid_defect"]
        assert math.isnan(entry["max_residual"]) and entry["passed"] is False

    def test_worst_keeps_a_nan_in_any_position(self):
        # max() keeps a NaN only in first place; a shared check's worst
        # residual must fail wherever the NaN sits.
        for values in ([math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]):
            assert math.isnan(_worst(values))
        assert _worst([1.0, 3.0, 2.0]) == 3.0
        # The fold is floored at 0.0: `tangent_inside` folds (-t, t - 1),
        # both negative for a tangent point inside its side.
        assert _worst([-3.0, -1.0]) == 0.0
        assert math.copysign(1.0, _worst([-0.0])) == 1.0 and _worst([-0.0]) == 0.0
        for values in ([-1.0, math.nan, -2.0], [-1.0, -2.0, math.nan]):
            assert math.isnan(_worst(values))

    def test_classifies_once_per_triangle(self, monkeypatch):
        original = geometry.classify
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (geometry, three_sum, cli):
            if getattr(module, "classify", None) is original:
                monkeypatch.setattr(module, "classify", counting)
        run_fuzz(50, 7, 1e-9)
        assert len(calls) == 50

    def test_similarity_reads_side_lengths_from_metrics(self, monkeypatch):
        t = triangle_from_sides(2.0, 3.0, 4.0)
        # The quotients norm() gave: the metrics hold the same square roots.
        expected = {}
        for v in "ABC":
            foot_h, _ = t._feet[geometry.OPPOSITE_SIDE[v][0]]
            vq = t._legs[v][1]
            expected[v] = dot(foot_h - getattr(t, v), vq) / geometry.norm(vq)

        def no_norm(u):
            raise AssertionError("similarity_check called norm")

        for module in (geometry, decomposition):
            monkeypatch.setattr(module, "norm", no_norm, raising=False)
        for v in "ABC":
            assert decomposition.similarity_check(t, v).ch == expected[v]

    def test_random_triangles_are_healthy(self):
        import random

        rng = random.Random(3)
        for _ in range(200):
            t = random_triangle(rng)
            assert t.twice_area > 0
            for p in (t.A, t.B, t.C):
                assert -10.0 <= p.x <= 10.0
                assert -10.0 <= p.y <= 10.0


def failed_checks(report) -> list:
    """The checks of a verify report with a failed entry, in report order."""
    return [name for name, entry in report["checks"].items()
            if not (entry["passed"] if "passed" in entry
                    else all(item["passed"] for item in entry.values()))]


class TestCatalogue:
    """`verify` and `fuzz` run the same rows of `cuoco.checks`."""

    def test_verify_and_fuzz_name_the_same_checks(self, capsys):
        # Obtuse and scalene, so that no check skips all of its records.
        _, out, _ = run_cli(capsys, "verify", "--sides", "2,3,4")
        assert list(json.loads(out)["checks"]) == list(checks.NAMES)
        _, out, _ = run_cli(capsys, "fuzz", "--count", "50", "--seed", "7")
        assert sorted(json.loads(out)["checks"]) == sorted(checks.NAMES)

    @staticmethod
    def _edit_closed_form(monkeypatch, reading, edit):
        """Make checks.rows see `reading`'s closed form passed through `edit`."""
        exact = getattr(three_sum, reading)

        def edited(*args, **kwargs):
            report = exact(*args, **kwargs)
            report.closed_form = edit(report.closed_form)
            return report

        monkeypatch.setattr(three_sum, reading, edited)

    def test_shifted_closed_form_splits_fail_verify(self, capsys, monkeypatch):
        self._edit_closed_form(monkeypatch, "interpret_angles",
                               lambda closed: {x: value + 1e-6 for x, value in closed.items()})
        code, out, _ = run_cli(capsys, "verify", "--sides", "2,3,4")
        assert code == 1
        report = json.loads(out)
        assert failed_checks(report) == ["vertex_splits"]
        assert report["checks"]["vertex_splits"]["max_residual"] == pytest.approx(1e-6, rel=1e-3)

    def test_nan_in_a_folded_check_fails_verify(self, capsys, monkeypatch):
        # "y" is the tangent length at B.
        self._edit_closed_form(monkeypatch, "interpret_sides",
                               lambda closed: {**closed, "y": math.nan})
        code, out, _ = run_cli(capsys, "verify", "--sides", "2,3,4")
        assert code == 1
        report = json.loads(out)
        assert failed_checks(report) == ["tangent_lengths"]
        assert math.isnan(report["checks"]["tangent_lengths"]["max_residual"])

    def test_needle_sides_reading_is_undecided(self, capsys):
        # Area 0.5, but the float sides satisfy b == a + c; the tangent
        # length at B rounds to zero, inside the rounding budget.
        needle = "--points=0,0,1,0,1e8,1"
        code, out, _ = run_cli(capsys, "solve", "--L", "1", "--M", "1", "--N", "1",
                               "--interpret", "sides", needle)
        assert code == 0
        interpretation = json.loads(out)["interpretation"]
        assert interpretation["all_positive"] is None and interpretation["passed"] is True
        code, out, _ = run_cli(capsys, "verify", needle)
        assert code == 0
        assert "sides_positivity" not in json.loads(out)["checks"]

    def test_negative_tangent_length_fails_verify(self, capsys, monkeypatch):
        # A mutant solve that puts a y inside the rounding budget (only the
        # needle's tangent length at B is) twice the budget below zero.
        exact = three_sum.solve

        def pushed(system):
            sol = exact(system)
            budget = three_sum.SIDES_BUDGET * 2.0**-53 * max(system.L, system.M, system.N)
            y = -2 * budget if abs(sol.y) <= budget else sol.y
            return three_sum.Solution(sol.x, y, sol.z)

        monkeypatch.setattr(three_sum, "solve", pushed)
        code, out, _ = run_cli(capsys, "verify", "--points=0,0,1,0,1e8,1")
        assert code == 1
        assert failed_checks(json.loads(out)) == ["sides_positivity"]


    def test_per_record_verdict_divides_by_the_scale(self, capsys, monkeypatch):
        # At this pair |r| <= tol * scale is False but |r| / scale <= tol is
        # True; a per-record entry judges by the second, as the folded
        # entries and fuzz do.
        r, scale, tol = 1.4130532120301893e-07, 141.3053212030189, 1e-9
        rows = checks.rows

        def edited(t):
            for check, item, residual, record_scale, detail in rows(t):
                if check == "euclid_defect" and item == "A":
                    residual, record_scale, detail = r, scale, (detail[0], r)
                yield check, item, residual, record_scale, detail

        monkeypatch.setattr(checks, "rows", edited)
        code, out, _ = run_cli(capsys, "verify", "--sides", "2,3,4", "--tol", str(tol))
        assert code == 0
        assert json.loads(out)["checks"]["euclid_defect"]["A"]["passed"] is (abs(r) / scale <= tol)


# Far out, tiny, huge, needle and near-collinear triangles on which some
# checks are known to fail or the input is refused.
HARD_INPUTS = [
    *(f"--points={0.3 + shift},{0.1 + shift},{1.7 + shift},{0.2 + shift},"
      f"{0.4 + shift},{2.9 + shift}" for shift in (1e3, 1e5, 1e7)),
    "--points=1e9,1e9,1.000000001e9,1e9,1e9,1.000000003e9",
    f"--points={FAR_THIN}",
    "--points=0,0,8.9e153,0,0,8.9e153",
    "--points=1e-170,0,0,1e-170,0,0",
    "--points=0,0,1e-170,0,0,1e10",
    "--sides=1e-200,1e-200,1e-200",
    "--points=-4.033711041662525e-158,-2.304597519925766e-158,-4.559287070502819e-158,"
    "3.967412266899968e-158,-1.59372811696197e-158,2.0517940328603997e-158",
    "--points=0,0,38438586.83628897,0,429840231938144.3,26294668.120519925",
    "--sides=2,3,4",
    "--sides=2e-6,3e-6,4e-6",
    "--points=0.5000000000000262,0.5000000000000268,12,12,24,24",
]


@pytest.mark.parametrize("triangle", HARD_INPUTS)
def test_verify_reports_or_refuses_hard_inputs(capsys, triangle):
    """Each gives a JSON report whose exit code matches its verdict, or one
    `error:` line and exit 2; none raises. Which checks fail is not pinned."""
    code, out, err = run_cli(capsys, "verify", triangle)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == (0 if json.loads(out)["passed"] else 1)
        assert err == ""


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "cuoco.cli", "verify", "--sides", "3,4,5"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["classification"]["kind"] == "right"

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # Start-up cost: `dataclasses` imports `inspect`, `ast`, `dis` and
        # `tokenize`. -S keeps site hooks from importing either first.
        package_root = Path(cuoco.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, cuoco.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
            env=dict(os.environ, PYTHONPATH=str(package_root)),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


NAMES = ("verify", "solve", "figure", "fuzz")


class TestParser:
    """Each command line builds the top-level parser and only its own
    subparser; help, errors and usage lines read as from the full tree."""

    @staticmethod
    def built_parsers(monkeypatch) -> list:
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return built

    def test_a_command_builds_only_its_own_subparser(self, capsys, monkeypatch):
        built = self.built_parsers(monkeypatch)
        assert run_cli(capsys, "verify", "--sides", "3,4,5")[0] == 0
        assert len(built) == 2

    def test_help_builds_every_subparser(self, capsys, monkeypatch):
        built = self.built_parsers(monkeypatch)
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert len(built) == 5
        assert all(name in out for name in NAMES)

    def test_unknown_option_usage_lists_every_command(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--bogus")
        assert code == 2
        assert out == ""
        usage = err.splitlines()[0]
        assert usage.startswith("usage: cuoco ")
        assert all(name in usage for name in NAMES)
        assert "--bogus" in err

    @pytest.mark.parametrize("argv", [("bogus",), ()], ids=["unknown", "none"])
    def test_missing_or_unknown_command_names_every_choice(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert all(name in err for name in NAMES)

    @pytest.mark.parametrize("name", NAMES)
    def test_command_help(self, capsys, name):
        code, out, _ = run_cli(capsys, name, "--help")
        assert code == 0
        assert out.startswith(f"usage: cuoco {name} ")

    @pytest.mark.parametrize("argv", [
        ("verify", "--sides", "3,4,5", "--tol", "1e-6"),
        ("solve", "--L", "1", "--M", "2", "--N", "3", "--degrees", "--interpret", "sides"),
        ("figure", "--kind", "cuoco", "--points=0,0,4,0,1,3", "--out", "x.svg", "--no-labels"),
        ("fuzz", "--count", "5", "--seed", "s"),
        ("verify", "--help"),
        ("solve", "--L", "1"),
        ("figure", "--kind", "nope"),
        ("fuzz", "--count", "x"),
        ("verify", "--bogus"),
        ("verify", "--sides", "3,4,5", "extra"),
    ], ids=lambda argv: " ".join(argv))
    def test_one_subparser_parses_as_the_full_tree(self, capsys, argv):
        def parse(parser):
            try:
                result = vars(parser.parse_args(list(argv)))
            except SystemExit as exc:
                result = exc.code
            return result, capsys.readouterr()

        assert parse(cli.build_parser(list(argv))) == parse(cli.build_parser([]))

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        # The `cuoco` console script calls main() with no arguments.
        monkeypatch.setattr(sys, "argv", ["cuoco", "verify", "--sides", "3,4,5"])
        code = main()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["classification"]["kind"] == "right"
