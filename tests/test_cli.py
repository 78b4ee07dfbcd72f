import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import cuoco
from cuoco import (checks, circles, cli, cosine_law, decomposition, figures, geometry,
                   three_sum)
from cuoco.cli import _worst, main, random_triangle, run_fuzz
from cuoco.geometry import Point, Triangle, dot, triangle_from_sides

from conftest import circumcentre_budget
from test_reports import PINNED_REPORTS


DEMO_OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"

# A thin triangle about 2e11 from the origin.
FAR_THIN = ("190233263674.5445,190233263674.5445,190233263674.54453,190233263674.5445,"
            "190233263674.5445,190233263674.5446")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def written(report) -> str:
    """The text `cli._emit` prints for report, without the final newline."""
    out = []
    cli._json(report, out, "\n")
    return "".join(out)


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
        printed = json.loads(written(report))
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

    def test_defect_figure_computes_the_constructions_once(self, capsys, monkeypatch, tmp_path):
        # The receipt's defect reads the frame; only the drawing's build
        # reads the constructions kernel, wherever a module holds it.
        calls = []
        kernel = geometry._constructions

        def counting(f):
            calls.append(f)
            return kernel(f)

        for module in (geometry, cosine_law, decomposition, circles, figures, cli):
            if vars(module).get("_constructions") is kernel:
                monkeypatch.setattr(module, "_constructions", counting)
        code, out, _ = run_cli(capsys, "figure", "--kind", "euclid_defect", "--sides", "2,3,4",
                               "--out", str(tmp_path / "d.svg"))
        assert code == 0
        assert json.loads(out)["report"] == {"vertex": "B", "defect": 11.0}
        assert len(calls) == 1

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

    def test_drawing_too_small_for_precision_exit_2(self, capsys, tmp_path):
        # Every coordinate prints as 0.000000 at the default precision; the
        # refusal comes before the file is opened, so none is written.
        out_file = tmp_path / "figure.svg"
        argv = ("figure", "--kind", "cuoco", "--sides", "1e-7,1e-7,1e-7", "--out", str(out_file))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "precision 6" in err
        assert not out_file.exists()
        code, _, _ = run_cli(capsys, *argv, "--precision", "12")
        assert code == 0
        assert 'viewBox="-0.000000100263 -0.000000150263 0.000000300526 0.000000263923"' in (
            out_file.read_text())

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

    @staticmethod
    def edit_constructions(monkeypatch, where, edit):
        """Make the catalogue see the constructions of each frame with the
        values at `where`, a slice, passed through `edit`."""
        exact = geometry._constructions

        def edited(f):
            k = list(exact(f))
            k[where] = edit(f, k[where])
            return tuple(k)

        monkeypatch.setattr(geometry, "_constructions", edited)

    @staticmethod
    def edit_defects(monkeypatch, edit):
        """Make the catalogue see each frame's Euclid defects, (defect,
        residual) at A, B, C, passed through `edit` with the squared sides."""
        exact = cosine_law._defects

        def edited(sq_a, sq_b, sq_c, *dots):
            return tuple(edit((sq_a, sq_b, sq_c), exact(sq_a, sq_b, sq_c, *dots)))

        monkeypatch.setattr(cosine_law, "_defects", edited)

    def test_broken_chain_is_a_counterexample(self, capsys, monkeypatch):
        self.edit_constructions(monkeypatch, geometry.CHAIN_DEVIATIONS,
                                lambda f, deviations: [math.nan] * len(deviations))
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
        def corrupted(squares, defects):
            shift = 1e-8 * max(1.0, *squares)
            # (defect, residual) at A, B, C
            return [value + shift if i % 2 else value for i, value in enumerate(defects)]

        self.edit_defects(monkeypatch, corrupted)
        code, out, _ = run_cli(capsys, "fuzz", "--count", "5", "--seed", "7")
        assert code == 1
        assert json.loads(out)["counterexample"]["check"] == "euclid_defect"
        code, out, _ = run_cli(capsys, "verify", "--sides", "2,3,4")
        assert code == 1
        assert not any(entry["passed"] for entry in json.loads(out)["checks"]["euclid_defect"].values())

    def test_nan_residual_is_a_counterexample(self, capsys, monkeypatch):
        self.edit_defects(monkeypatch, lambda squares, defects: [1.0, math.nan] * 3)
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
        # Each frame classifies its triangle once, in _beside.
        original = geometry._beside
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(geometry, "_beside", counting)
        run_fuzz(50, 7, 1e-9)
        assert len(calls) == 50

    def test_similarity_reads_side_lengths_from_metrics(self, monkeypatch):
        t = triangle_from_sides(2.0, 3.0, 4.0)
        # The quotients norm() gave: the metrics hold the same square roots.
        expected = {}
        for v in "ABC":
            p, q = geometry.OPPOSITE_SIDE[v]
            foot_h, _ = geometry.foot_of_altitude(t, p)
            vq = getattr(t, q) - getattr(t, v)  # the leg, bit for bit (see TestLegs)
            expected[v] = dot(foot_h - getattr(t, v), vq) / geometry.norm(vq)

        def no_norm(u):
            raise AssertionError("similarity_check called norm")

        for module in (geometry, decomposition):
            monkeypatch.setattr(module, "norm", no_norm, raising=False)
        for v in "ABC":
            assert decomposition.similarity_check(t, v).ch == expected[v]

    @staticmethod
    def profile_fuzz(capsys, monkeypatch, counted, *argv):
        """Run `fuzz` with argv: (exit code, calls of each function in
        `counted`, name -> functions, and how many coordinates it drew)."""
        names = {fn.__code__: name for name, fns in counted.items() for fn in fns}
        calls = dict.fromkeys(counted, 0)
        draws = []

        class Counting(random.Random):
            def random(self):
                draws.append(None)
                return super().random()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                calls[names[frame.f_code]] += 1

        monkeypatch.setattr(cli, "random", types.SimpleNamespace(Random=Counting))
        sys.setprofile(profile)
        try:
            code = main(["fuzz", *argv])
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        return code, calls, len(draws)

    def test_builds_no_triangle_metrics_or_point(self, capsys, monkeypatch):
        # Only a counterexample's report builds a Triangle, from its frame.
        # Each type is built by __init__ or by a function that skips it.
        counted = {"Triangle": [geometry.Triangle.__init__],
                   "TriangleMetrics": [geometry.TriangleMetrics.__init__],
                   "Point": [geometry.Point.__init__, geometry._point]}
        for name, method in (("Triangle", "_from_frame"), ("TriangleMetrics", "_view")):
            built_by = getattr(getattr(geometry, name), method, None)
            if built_by is not None:
                counted[name].append(built_by.__func__)
        code, calls, _ = self.profile_fuzz(capsys, monkeypatch, counted, "--count", "200")
        assert code == 0
        assert calls == {"Triangle": 0, "TriangleMetrics": 0, "Point": 0}
        code, calls, _ = self.profile_fuzz(capsys, monkeypatch, counted, "--count", "2000",
                                           "--tol", "5e-15", "--seed", "1")
        assert code == 1
        assert calls["Triangle"] == 1

    @pytest.mark.parametrize("argv", [("--count", "200"),
                                      ("--count", "2000", "--tol", "5e-15", "--seed", "1")])
    def test_one_frame_per_draw(self, capsys, monkeypatch, argv):
        # Each six coordinates drawn, kept or rejected, make one frame.
        code, calls, draws = self.profile_fuzz(capsys, monkeypatch, {"_frame": [geometry._frame]},
                                               *argv)
        assert code in (0, 1)
        assert calls["_frame"] >= 26 and calls["_frame"] * 6 == draws

    def test_random_triangles_are_healthy(self):
        rng = random.Random(3)
        for _ in range(200):
            t = random_triangle(rng)
            assert t.twice_area > 0
            for p in (t.A, t.B, t.C):
                assert -10.0 <= p.x <= 10.0
                assert -10.0 <= p.y <= 10.0


def fold_records(count, seed, tol) -> tuple:
    """The reference for run_fuzz: every record of checks.rows folded by check
    name, as the fold before the slot layout did. Returns (check -> worst
    |residual| / scale, counterexample)."""
    rng = random.Random(seed)
    maxima, counterexample = {}, None
    for index in range(count):
        t = Triangle._from_frame(cli._sample(rng))
        for name, _, residual, scale, _ in checks.rows(t):
            value = abs(residual) / scale
            if value > maxima.setdefault(name, value) or value != value:
                maxima[name] = value
            if not value <= tol and counterexample is None:
                counterexample = {"index": index, "check": name, "residual": value,
                                  "triangle": cli._triangle_json(t)}
        if counterexample is not None:
            break
    return maxima, counterexample


class TestPositionalFold:
    """run_fuzz folds passing triangles by slot, in batches, and a failing one
    record by record; its report must be the record fold's, NaN included."""

    @staticmethod
    def assert_fold_matches(count, seed, tol):
        report = run_fuzz(count, seed, tol)
        maxima, counterexample = fold_records(count, seed, tol)
        # repr() compares a NaN equal to a NaN.
        assert repr(report["checks"]) == repr(
            {name: {"max_residual": maxima[name], "passed": maxima[name] <= tol}
             for name in sorted(maxima)})
        assert repr(report["counterexample"]) == repr(counterexample)
        assert report["passed"] is (counterexample is None)
        return report

    @pytest.mark.parametrize("batch", [7, cli._BATCH])
    @pytest.mark.parametrize("tol", [1e-9, 5e-15, 1e-17])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_triangles(self, monkeypatch, seed, tol, batch):
        # 250 triangles are more than two batches of either size.
        monkeypatch.setattr(cli, "_BATCH", batch)
        report = self.assert_fold_matches(250, seed, tol)
        if tol == 1e-17:
            assert report["counterexample"]["index"] == 0

    def test_skipped_slots_leave_their_checks_out(self, monkeypatch):
        # Integer 3-4-5 triangles: the right angle skips its defect_sign slot
        # and the squares and angles positivity slots, whose checks are then
        # absent; the other two defect_sign slots are not skipped.
        def right_triangle(rng):
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            return geometry._frame(x, y, x + 3, y, x, y + 4)

        monkeypatch.setattr(cli, "_sample", right_triangle)
        monkeypatch.setattr(cli, "_BATCH", 7)
        report = self.assert_fold_matches(30, 0, 1e-9)
        assert report["passed"] is True
        assert sorted(report["checks"]) == sorted(
            set(checks.NAMES) - {"squares_positivity", "angles_positivity"})

    def test_nan_after_a_folded_batch(self, monkeypatch):
        # The 12th triangle's last slot (split_sums at C) is NaN, after one
        # batch of 7 has been folded by position.
        rng = random.Random(3)
        nan_frame = [cli._sample(rng) for _ in range(12)][-1]
        exact = checks._rows

        def nan_in_the_last_slot(f):
            residuals, *rest = exact(f)
            if f == nan_frame:
                residuals[-1] = math.nan
            return (residuals, *rest)

        monkeypatch.setattr(checks, "_rows", nan_in_the_last_slot)
        monkeypatch.setattr(cli, "_BATCH", 7)
        report = self.assert_fold_matches(30, 3, 1e-9)
        assert report["counterexample"]["index"] == 11
        assert report["counterexample"]["check"] == "split_sums"
        assert math.isnan(report["checks"]["split_sums"]["max_residual"])


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
        """Make checks.rows see the closed form (x, y, z) that `reading`, a
        reading's value function, returns passed through `edit`; its
        max_residual stays as computed."""
        exact = getattr(three_sum, reading)

        def edited(*args):
            solution, closed, *rest = exact(*args)
            return (solution, edit(closed), *rest)

        monkeypatch.setattr(three_sum, reading, edited)

    def test_shifted_closed_form_splits_fail_verify(self, capsys, monkeypatch):
        self._edit_closed_form(monkeypatch, "_angles",
                               lambda closed: tuple(value + 1e-6 for value in closed))
        code, out, _ = run_cli(capsys, "verify", "--sides", "2,3,4")
        assert code == 1
        report = json.loads(out)
        assert failed_checks(report) == ["vertex_splits"]
        assert report["checks"]["vertex_splits"]["max_residual"] == pytest.approx(1e-6, rel=1e-3)

    def test_nan_in_a_folded_check_fails_verify(self, capsys, monkeypatch):
        # y is the tangent length at B.
        self._edit_closed_form(monkeypatch, "_sides",
                               lambda closed: (closed[0], math.nan, closed[2]))
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
        exact = three_sum._solve

        def pushed(L, M, N):
            x, y, z = exact(L, M, N)
            budget = three_sum.SIDES_BUDGET * 2.0**-53 * max(L, M, N)
            return x, -2 * budget if abs(y) <= budget else y, z

        monkeypatch.setattr(three_sum, "_solve", pushed)
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


# The hard inputs, an integer right angle at A, at B and at C, the needle,
# and two refused triangles: quad areas that overflow, and a circumcentre
# beyond the float range.
PINNED_VERIFY_INPUTS = [
    *HARD_INPUTS,
    "--points=0,0,3,0,0,4",
    "--points=0,0,3,0,3,4",
    "--points=3,4,0,0,3,0",
    "--points=0,0,1,0,1e8,1",
    "--points=1e160,0,1.00000000000001e160,0,1e160,1e150",
    "--points=0,0,1,0,0.5,5e-324",
]

# SHA-256 of repr((exit code, stdout, stderr)) of `verify` on each of
# PINNED_VERIFY_INPUTS, then of repr(record) for every record of
# checks.rows on the Fraction triangle of test_rational_input_stays_exact,
# which `verify` cannot take.
VERIFY_PIN_DIGEST = "194f941b6e30b9f2937593f01987f9f2036ce83d882adae22f4a80e8cd702a4d"


def test_verify_outputs_match_pinned_digest(capsys):
    """Every report, verdict and error message on the inputs above, byte for
    byte, including which check fails on the inputs that fail today. Moving
    to the triangle's own frame and scale (ROADMAP item 1) is expected to
    change these verdicts and re-pin this digest, saying which changed."""
    digest = hashlib.sha256()
    for triangle in PINNED_VERIFY_INPUTS:
        digest.update(repr(run_cli(capsys, "verify", triangle)).encode("utf-8"))
    t = Triangle(Point(Fraction(1, 3), Fraction(-2, 7)), Point(Fraction(9, 2), Fraction(1, 5)),
                 Point(Fraction(-3, 4), Fraction(11, 3)))
    for record in checks.rows(t):
        digest.update(repr(record).encode("utf-8"))
    assert digest.hexdigest() == VERIFY_PIN_DIGEST


# fuzz runs whose tolerance is below the sweep's worst residuals, so each stops
# at a counterexample: at index 25 on angles_interpretation, 46 on similarity,
# 305 and 0. Each report prints the counterexample's vertices as stored, after
# the orientation swap.
PINNED_COUNTEREXAMPLE_RUNS = [
    ("--count", "2000", "--tol", "5e-15", "--seed", "1"),
    ("--count", "2000", "--tol", "5e-15", "--seed", "2"),
    ("--count", "2000", "--tol", "2e-14", "--seed", "1"),
    ("--count", "50", "--tol", "1e-17", "--seed", "1"),
]

# SHA-256 of repr((exit code, stdout)) of `fuzz` on each of PINNED_COUNTEREXAMPLE_RUNS.
COUNTEREXAMPLE_PIN_DIGEST = "37b6b09b8cfe6af8d913965c7deb0c55aee8f453c04542dad8839d138f03a8d3"


def test_fuzz_counterexample_reports_match_pinned_digest(capsys):
    digest = hashlib.sha256()
    for argv in PINNED_COUNTEREXAMPLE_RUNS:
        code, out, _ = run_cli(capsys, "fuzz", *argv)
        assert code == 1
        digest.update(repr((code, out)).encode("utf-8"))
    assert digest.hexdigest() == COUNTEREXAMPLE_PIN_DIGEST


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

    def test_verify_does_not_import_figures(self):
        # Only drawing needs cuoco.figures; -X importtime lists every module
        # the process imports.
        package_root = Path(cuoco.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "cuoco.cli", "verify", "--sides", "2,3,4"],
            env=dict(os.environ, PYTHONPATH=str(package_root)),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        imported = {line.rpartition("|")[2].strip() for line in result.stderr.splitlines()}
        assert "cuoco.checks" in imported
        assert "cuoco.figures" not in imported

    def test_figure_exports_are_the_figures_names(self):
        exported = (cuoco.FIGURE_KINDS, cuoco.FigureSpec, cuoco.KindMismatch,
                    cuoco.figure_construction, cuoco.render)
        assert exported == (figures.KINDS, figures.FigureSpec, figures.KindMismatch,
                            figures.construction, figures.render)
        with pytest.raises(AttributeError, match="no attribute 'figure_kinds'"):
            cuoco.figure_kinds


NAMES = ("verify", "solve", "figure", "fuzz")


class TestParser:
    """A command line that names a command is parsed by that command's
    parser alone; help, errors and usage lines come from the full tree."""

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
        assert len(built) == 1

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
        ("verify", "--si", "3,4,5"),
        ("figure", "--no", "--kind", "incircle", "--sides=3,4,5", "--out", "x.svg"),
        ("verify", "--sides=3,4,5", "--tol=nan"),
        ("verify", "--sides", "-h"),
        ("verify", "--he"),
        ("figure", "-h"),
        ("verify", "--sides", "3,4,5", "--"),
        ("verify", "--", "--sides", "3,4,5"),
        ("verify", "--sides", "3,4,5", "--", "x"),
        ("solve", "--L", "-1", "--M", "-2", "--N", "-3"),
        ("verify",),
        ("--", "verify"),
    ], ids=lambda argv: " ".join(argv))
    def test_one_subparser_parses_as_the_full_tree(self, capsys, monkeypatch, argv):
        def parse(path):
            try:
                result = vars(path(list(argv)))
            except SystemExit as exc:
                result = exc.code
            return result, capsys.readouterr()

        full_tree = cli.build_parser
        expected = parse(lambda argv: full_tree().parse_args(argv))
        trees = []
        monkeypatch.setattr(cli, "build_parser", lambda: trees.append(1) or full_tree())
        assert parse(cli._parse) == expected
        # The full tree is built only to print help or an error.
        assert len(trees) == (1 if isinstance(expected[0], int) else 0)

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        # The `cuoco` console script calls main() with no arguments.
        monkeypatch.setattr(sys, "argv", ["cuoco", "verify", "--sides", "3,4,5"])
        code = main()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["classification"]["kind"] == "right"


def rounded(obj):
    """The rounding pass `cli._emit` made before the one-pass writer: the
    reference that `json.dumps(rounded(report), indent=2)` completes."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return round(obj, 12)
    if isinstance(obj, dict):
        return {key: rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [rounded(value) for value in obj]
    if isinstance(obj, geometry._Record):  # a record prints as its fields, in order
        return {name: rounded(getattr(obj, name)) for name in obj._fields}
    return obj


class TestReportWriter:
    """`cli._json` writes the bytes of `json.dumps(rounded(report), indent=2)`."""

    @staticmethod
    def assert_written_as_reference(report):
        assert written(report) == json.dumps(rounded(report), indent=2)

    @staticmethod
    def emitted(monkeypatch, *argv) -> list:
        """The reports `main(argv)` hands to `_emit`."""
        reports = []
        monkeypatch.setattr(cli, "_emit", reports.append)
        main(list(argv))
        return reports

    @pytest.mark.parametrize("argv", [argv for argv, _ in PINNED_REPORTS])
    def test_pinned_reports(self, monkeypatch, argv):
        [report] = self.emitted(monkeypatch, *argv)
        self.assert_written_as_reference(report)

    @pytest.mark.parametrize("triangle", PINNED_VERIFY_INPUTS)
    def test_verify_on_hard_inputs(self, monkeypatch, triangle):
        for report in self.emitted(monkeypatch, "verify", triangle):  # none when refused
            self.assert_written_as_reference(report)

    def test_fuzz_reports(self):
        # Some tolerances stop each run at a counterexample, which prints a triangle.
        tolerances = (1e-9, 5e-15, 1e-17, 0.0)
        for seed in range(2000):
            self.assert_written_as_reference(run_fuzz(3, seed, tolerances[seed % 4]))

    def test_figure_and_solve_reports(self, monkeypatch, tmp_path):
        for kind in figures.KINDS:
            for report in self.emitted(monkeypatch, "figure", "--kind", kind, "--sides", "2,3,4",
                                       "--out", str(tmp_path / "f.svg")):
                self.assert_written_as_reference(report)
        for reading in ("squares", "sides", "angles"):
            for report in self.emitted(monkeypatch, "solve", "--L", "4", "--M", "9", "--N", "16",
                                       "--interpret", reading, "--sides", "2,3,4"):
                self.assert_written_as_reference(report)

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 4e-13, -4e-13, 5e-324, 1.7976931348623157e308,
        0.1 + 0.2, 123456.78901234567, -2.5e-7, 1e22, 10 ** 400, -(10 ** 400), 0, -7, True, False,
        None, "", "plain", 'quote " and \\ backslash', "control \x00\x01\x1f\n\t\x7f",
        "non-ASCII é ☃ \U0001f600 \ud800", [], (), {}, [[]], [{}], {"": []},
        [True, 1, 1.0, None, "1"], (1.5, (2.5, ()), [3.5]),
        {"a": {"b": {"c": [math.nan, {"d": ()}]}}, "eé\"\\": -0.0},
    ], ids=repr)
    def test_values(self, value):
        self.assert_written_as_reference(value)
        self.assert_written_as_reference({"key": value, "list": [value, [value]]})

    def test_nested_records(self):
        t = triangle_from_sides(2, 3, 4)
        trace = decomposition.derive_cosine_theorem(decomposition.build(t))
        reading = three_sum.interpret_angles(circles.circumcircle(t), 1e-9)
        for record in (trace, reading, t.metrics, t, circles.incircle(t)):
            self.assert_written_as_reference(record)
            self.assert_written_as_reference({"records": [record, (record,)], "empty": {}})

    def test_only_json_values(self):
        with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
            written({"x": [Fraction(1, 3)]})
