import argparse
import contextlib
import hashlib
import io
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
from hypothesis import given, settings, strategies as st

import cuoco
from cuoco import (checks, circles, cli, cosine_law, decomposition, figures, geometry,
                   three_sum)
from cuoco.cli import _worst, main, random_triangle, run_fuzz
from cuoco.geometry import Point, Triangle, dot, triangle_from_sides

from conftest import RATIONAL, circumcentre_budget, records, tree_copy
from test_decomposition import EXACT_FAR_OUT, FAR_OUT
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
    """The text `main` prints for report, without the final newline."""
    return json.dumps(report, default=cli._fields)


class TestVerify:
    def test_obtuse_triangle_report(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--sides", "2,3,4")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "cuoco-report/2"
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

    # An empty --sides= or --points= is an option given, not one left out.
    @pytest.mark.parametrize("argv, message", [
        (("verify", "--sides=", "--points=0,0,4,0,0,3"), "give either --sides or --points, not both"),
        (("figure", "--kind", "cuoco", "--sides=", "--points=0,0,4,0,0,3", "--out", "x.svg"),
         "give either --sides or --points, not both"),
        (("solve", "--L", "1", "--M", "2", "--N", "3", "--points="),
         "triangle input is only used together with --interpret"),
        (("verify", "--sides="), "--sides needs 3 comma-separated numbers, got ''"),
        (("verify", "--points="), "--points needs 6 comma-separated numbers, got ''"),
    ], ids=["verify both", "figure both", "solve points", "verify sides", "verify points"])
    def test_empty_triangle_option_is_read(self, capsys, monkeypatch, tmp_path, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("triangle", ["--points=0,0,{},0,0,1", "--sides=3,-{},5"])
    def test_over_long_integer_names_the_digit_limit(self, capsys, triangle):
        # int() refuses text past Python's digit limit, where float() reads inf.
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "verify", triangle.format("1" + "0" * limit))
        assert (code, out) == (2, "")
        assert err == f"error: an integer of {limit + 1} digits exceeds Python's limit of {limit} digits\n"

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
        assert receipt["schema"] == "cuoco-report/2"
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

    def test_defect_figure_computes_the_constructions_once(self, capsys, frame_calls, tmp_path):
        # The constructions are part of the triangle's frame: the defect
        # figure's receipt and its drawing read the one frame, and so does
        # every other figure kind, verify and each solve --interpret reading.
        code, out, _ = run_cli(capsys, "figure", "--kind", "euclid_defect", "--sides", "2,3,4",
                               "--out", str(tmp_path / "d.svg"))
        assert code == 0
        assert json.loads(out)["report"] == {"vertex": "B", "defect": 11.0}
        assert len(frame_calls) == 1
        solve = ("solve", "--L", "4", "--M", "9", "--N", "16", "--sides", "2,3,4", "--interpret")
        commands = [("verify", "--sides", "2,3,4"),
                    *(("figure", "--kind", kind, "--sides", "2,3,4", "--out", str(tmp_path / kind))
                      for kind in figures.KINDS),
                    *((*solve, reading) for reading in ("squares", "sides", "angles"))]
        for argv in commands:
            frame_calls.clear()
            assert run_cli(capsys, *argv)[0] == 0
            assert len(frame_calls) == 1, argv

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
        "incircle": {"center": [1.5, 0.6454972243679028], "radius": 0.6454972243679028,
                     "tangent_lengths": {"A": 2.5, "B": 1.5, "C": 0.49999999999999983}},
        "circumcircle": {"center": [0.9999999999999998, 1.8073922282301278],
                         "radius": 2.0655911179772892},
    }

    def test_every_kind_renders(self, capsys, tmp_path):
        assert tuple(self.RECEIPTS_2_3_4) == figures.KINDS
        t = triangle_from_sides(2, 3, 4)
        for kind, receipt in self.RECEIPTS_2_3_4.items():
            out_file = tmp_path / f"{kind}.svg"
            code, out, _ = run_cli(
                capsys, "figure", "--kind", kind, "--sides", "2,3,4", "--out", str(out_file)
            )
            assert code == 0
            report = json.loads(out)
            assert report["report"] == receipt, kind
            # The file holds the rendered text as UTF-8 bytes, and `bytes` counts them.
            svg = figures.render(figures.construction(kind, t), figures.FigureSpec(kind))
            assert out_file.read_bytes() == svg.encode("utf-8")
            assert report["bytes"] == out_file.stat().st_size, kind

    @pytest.mark.parametrize("t", [EXACT_FAR_OUT, FAR_OUT], ids=["exact_far_out", "far_out"])
    def test_nan_quad_areas_refused_where_panels_are_dashed(self, capsys, tmp_path, t):
        # The quad areas overflow to NaN, which no host square is smaller or
        # larger than: the obtuse kind, which dashes the oversized panels,
        # refuses, as verify does; the two kinds that dash none draw.
        points = "--points=" + ",".join(str(v) for p in (t.A, t.B, t.C) for v in (p.x, p.y))
        for kind in ("cuoco", "cuoco_pairs", "cuoco_obtuse"):
            out_file = tmp_path / f"{kind}.svg"
            code, out, err = run_cli(capsys, "figure", "--kind", kind, points, "--out", str(out_file))
            if kind != "cuoco_obtuse":
                assert (code, err) == (0, ""), kind
                assert out_file.exists()
                continue
            assert (code, out) == (2, "")
            assert err == "error: coordinates overflow: the panel quad areas are not numbers\n"
            assert not out_file.exists()
        code, out, err = run_cli(capsys, "verify", points)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "panel quad areas" in err and err.count("\n") == 1

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

    @pytest.mark.parametrize("command", ["verify", "figure"])
    def test_overflowing_circumradius_exit_2(self, capsys, tmp_path, command):
        # The centre lies about 1.2e159 below the base, finite, but its offset
        # from A squares past the float range. `verify` printed a NaN
        # circumradius and exited 1; `figure` blamed the circle's outline.
        argv = {"verify": ("verify",),
                "figure": ("figure", "--kind", "circumcircle", "--out", str(tmp_path / "x.svg"))}
        code, out, err = run_cli(capsys, *argv[command], "--points=0,0,1,0,0.5,1e-160")
        assert code == 2
        assert out == ""
        assert err == "error: coordinates overflow: the circumradius is not finite\n"
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
        assert report["checks"]["derivation"]["passed"] is True
        assert report["constructions"]["chain"] == [step.value for step in trace.steps]

    @staticmethod
    def edit_frame(monkeypatch, names, edit):
        """Make every frame, a Triangle's and each of fuzz's draws, hold the
        values named (space-separated, as geometry.LAYOUT names them) passed
        through `edit` with the exact frame."""
        exact = geometry._frame
        where = [geometry.FIELDS.index(name) for name in names.split()]

        def edited(*coords):
            f = list(exact(*coords))
            for index, value in zip(where, edit(f, [f[index] for index in where]), strict=True):
                f[index] = value
            return tuple(f)

        monkeypatch.setattr(geometry, "_frame", edited)
        monkeypatch.setattr(cli, "_frame", edited)

    def test_broken_chain_is_a_counterexample(self, capsys, monkeypatch):
        self.edit_frame(monkeypatch, geometry.LAYOUT["CHAIN_DEVIATIONS"],
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
        def corrupted(f, residuals):
            shift = 1e-8 * max(1.0, *f[geometry.SQUARES])
            return [residual + shift for residual in residuals]

        self.edit_frame(monkeypatch, "residual_A residual_B residual_C", corrupted)
        code, out, _ = run_cli(capsys, "fuzz", "--count", "5", "--seed", "7")
        assert code == 1
        assert json.loads(out)["counterexample"]["check"] == "euclid_defect"
        code, out, _ = run_cli(capsys, "verify", "--sides", "2,3,4")
        assert code == 1
        report = json.loads(out)
        assert report["checks"]["euclid_defect"]["passed"] is False
        assert all(report["values"][slot] > 1e-9 for slot in checks.COLUMNS["euclid_defect"])

    def test_nan_residual_is_a_counterexample(self, capsys, monkeypatch):
        self.edit_frame(monkeypatch, geometry.LAYOUT["DEFECTS"],
                        lambda f, defects: [1.0, math.nan] * 3)
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

    def test_classifies_once_per_triangle(self, capsys, monkeypatch):
        # Each triangle is classified once, in its one frame.
        code, calls, _ = self.profile_fuzz(capsys, monkeypatch, {"_frame": [geometry._frame]},
                                           "--count", "50", "--seed", "7")
        assert code == 0 and calls["_frame"] == 50

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
        # A TriangleMetrics has one constructor, _view.
        counted = {"Triangle": [geometry.Triangle.__init__, geometry.Triangle._from_frame.__func__],
                   "TriangleMetrics": [geometry.TriangleMetrics._view.__func__],
                   "Point": [geometry.Point.__init__, geometry._point]}
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


def fold_records(count, seed, tol, sample=None) -> tuple:
    """The reference for run_fuzz: each triangle's records, regrouped from
    checks._rows by RECORDS (conftest.records), folded record by record, as
    the fold before the slot layout did. Returns (each check's entry, in
    NAMES order, counterexample). `sample` draws each frame, cli._sample
    if None."""
    rng, sample = random.Random(seed), sample or cli._sample
    maxima, evaluated, counterexample, checked = {}, {}, None, 0
    for index in range(count):
        f = sample(rng)
        checked += 1
        for check, item, value in records(f):
            # A record's first value creates its maximum; a NaN, once in, stays.
            if value > maxima.setdefault((check, item), value) or value != value:
                maxima[check, item] = value
            evaluated[check, item] = evaluated.get((check, item), 0) + 1
            if not value <= tol and counterexample is None:
                counterexample = {"index": index, "check": check, "item": item, "residual": value,
                                  "triangle": cli._triangle_json(Triangle._from_frame(f))}
        if counterexample is not None:
            break
    entries = {}
    for name in checks.NAMES:
        keys = [(check, item) for check, item, _ in checks.RECORDS if check == name]
        seen = [(maxima[key], key[1]) for key in keys if key in maxima]
        nans = [pair for pair in seen if pair[0] != pair[0]]
        # max() returns the first of equal values, in record order.
        value, item = nans[0] if nans else max(seen, key=lambda pair: pair[0], default=(None, None))
        done = sum(evaluated.get(key, 0) for key in keys)
        entries[name] = {"evaluated": done, "skipped": len(keys) * checked - done,
                         "max_residual": value, "worst_item": item,
                         "passed": value is None or value <= tol}
    return entries, counterexample


class TestPositionalFold:
    """run_fuzz merges each triangle's slot vector by position, passing ones
    in batches and a failing one by a NaN-keeping max, and checks.entries
    regroups the merged vector; its report must be the record fold's, NaN
    included."""

    @staticmethod
    def assert_fold_matches(count, seed, tol):
        report = run_fuzz(count, seed, tol)
        entries, counterexample = fold_records(count, seed, tol)
        # repr() compares a NaN equal to a NaN.
        assert repr(report["checks"]) == repr(entries)
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

    def test_skipped_slots_are_counted(self, monkeypatch):
        # Integer 3-4-5 triangles: the right angle skips its defect_sign slot
        # and the squares and angles positivity slots, which are then
        # skipped on every triangle; the other two defect_sign slots are not.
        def right_triangle(rng):
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            return geometry._frame(x, y, x + 3, y, x, y + 4)

        monkeypatch.setattr(cli, "_sample", right_triangle)
        monkeypatch.setattr(cli, "_BATCH", 7)
        report = self.assert_fold_matches(30, 0, 1e-9)
        assert report["passed"] is True
        entries = report["checks"]
        assert list(entries) == list(checks.NAMES)
        for name in ("squares_positivity", "angles_positivity"):
            assert entries[name] == {"evaluated": 0, "skipped": 30, "max_residual": None,
                                     "worst_item": None, "passed": True}
        assert (entries["defect_sign"]["evaluated"], entries["defect_sign"]["skipped"]) == (60, 30)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sum_first_pass_test_keeps_the_verdict(self, data):
        # With no slot skipped, run_fuzz passes a triangle whose values sum to
        # at most tol before it takes their max: every value is >= 0 or NaN,
        # and a rounded sum of those is >= each of them. The verdict must be
        # the max-and-NaN test's on any vector and tolerance.
        tol = data.draw(st.sampled_from([0.0, 5e-324, 1e-9, 1.0, 1.7e308])
                        | st.floats(0.0, 1e300), label="tol")
        special = st.sampled_from([math.nan, math.inf, -math.inf, tol, -tol, 2.0 * tol,
                                   math.nextafter(tol, math.inf), 5e-324, 2.2250738585072014e-308,
                                   -1.0, 1.7e308])
        residuals = data.draw(st.lists(st.floats(-tol, tol), min_size=checks.SLOTS,
                                       max_size=checks.SLOTS), label="residuals")
        for slot in data.draw(st.sets(st.integers(0, checks.SLOTS - 1), max_size=3)):
            residuals[slot] = data.draw(special)
        skipped = sorted(data.draw(st.sets(st.integers(0, checks.SLOTS - 1), max_size=3),
                                   label="skipped"))
        # _rows gives each |residual| / scale (here scale 1); run_fuzz marks a
        # skipped slot's value -1.0.
        magnitudes = [abs(r) for r in residuals]
        values = [-1.0 if slot in skipped else value for slot, value in enumerate(magnitudes)]
        total = sum(values)
        verdict = max(values) <= tol and total == total
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(checks, "_rows", lambda f: (magnitudes, skipped, None))
            assert run_fuzz(1, 0, tol)["passed"] is verdict

    def test_nan_after_a_folded_batch(self, monkeypatch):
        # The 12th triangle's last slot (split_sums at C) is NaN, after one
        # batch of 7 has been folded by position.
        rng = random.Random(3)
        nan_frame = [cli._sample(rng) for _ in range(12)][-1]
        exact = checks._rows

        def nan_in_the_last_slot(f):
            values, *rest = exact(f)
            if f == nan_frame:
                values[-1] = math.nan
            return (values, *rest)

        monkeypatch.setattr(checks, "_rows", nan_in_the_last_slot)
        monkeypatch.setattr(cli, "_BATCH", 7)
        report = self.assert_fold_matches(30, 3, 1e-9)
        assert report["counterexample"]["index"] == 11
        assert report["counterexample"]["check"] == "split_sums"
        assert math.isnan(report["checks"]["split_sums"]["max_residual"])


def failed_checks(report) -> list:
    """The checks of a report whose entry failed, in report order."""
    return [name for name, entry in report["checks"].items() if not entry["passed"]]


class TestCatalogue:
    """`verify` and `fuzz` run the same rows of `cuoco.checks`."""

    def test_verify_and_fuzz_name_the_same_checks(self, capsys):
        # A right triangle too, where checks skip all of their records.
        for sides in ("2,3,4", "3,4,5"):
            _, out, _ = run_cli(capsys, "verify", "--sides", sides)
            assert list(json.loads(out)["checks"]) == list(checks.NAMES)
        _, out, _ = run_cli(capsys, "fuzz", "--count", "50", "--seed", "7")
        assert list(json.loads(out)["checks"]) == list(checks.NAMES)

    @staticmethod
    def _run_mutant(tmp_path, old, new, *argv):
        """`cuoco` on argv, run from a copy of the package whose
        `three_sum._readings` source has the one edit old -> new: (exit code,
        report)."""
        root = tree_copy(tmp_path, ("three_sum.py", old, new))
        result = subprocess.run([sys.executable, "-m", "cuoco.cli", *argv],
                                env=dict(os.environ, PYTHONPATH=str(root)), capture_output=True,
                                text=True)
        return result.returncode, json.loads(result.stdout)

    def test_shifted_closed_form_splits_fail_verify(self, tmp_path):
        # The catalogue sees the angles reading's closed form shifted; its
        # max_residual stays as computed.
        code, report = self._run_mutant(
            tmp_path, "an_x, an_y, an_z, an_cx, an_cy, an_cz,",
            "an_x, an_y, an_z, an_cx + 1e-6, an_cy + 1e-6, an_cz + 1e-6,",
            "verify", "--sides", "2,3,4")
        assert code == 1
        assert failed_checks(report) == ["vertex_splits"]
        assert report["checks"]["vertex_splits"]["max_residual"] == pytest.approx(1e-6, rel=1e-3)

    def test_nan_in_a_folded_check_fails_verify(self, tmp_path):
        # y of the sides reading's closed form is the tangent length at B.
        code, report = self._run_mutant(
            tmp_path, "sd_x, sd_y, sd_z, sd_cx, sd_cy, sd_cz,",
            "sd_x, sd_y, sd_z, sd_cx, math.nan, sd_cz,", "verify", "--sides", "2,3,4")
        assert code == 1
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
        assert json.loads(out)["checks"]["sides_positivity"] == {
            "evaluated": 0, "skipped": 1, "max_residual": None, "worst_item": None, "passed": True}

    def test_negative_tangent_length_fails_verify(self, tmp_path):
        # A mutant sides solution that puts a y inside the rounding budget
        # (only the needle's tangent length at B is) twice the budget below zero.
        code, report = self._run_mutant(
            tmp_path, "    sd_cx, sd_cy, sd_cz = ",
            "    budget = SIDES_BUDGET * 2.0**-53 * max(a, b, c)\n"
            "    sd_y = -2 * budget if abs(sd_y) <= budget else sd_y\n"
            "    sd_cx, sd_cy, sd_cz = ", "verify", "--points=0,0,1,0,1e8,1")
        assert code == 1
        assert failed_checks(report) == ["sides_positivity"]

    def test_per_record_verdict_divides_by_the_scale(self, capsys, monkeypatch):
        # At this pair |r| <= tol * scale is False but |r| / scale <= tol is
        # True; verify judges by the second, as fuzz does. The frame holds r
        # as the Euclid defect residual at A and the scale as the area scale.
        r, scale, tol = 1.4130532120301893e-07, 141.3053212030189, 1e-9
        assert not abs(r) <= tol * scale
        TestFuzz.edit_frame(monkeypatch, "area_scale", lambda f, _: [scale])
        TestFuzz.edit_frame(monkeypatch, "residual_A", lambda f, _: [r])
        code, out, _ = run_cli(capsys, "verify", "--sides", "2,3,4", "--tol", str(tol))
        assert code == 0
        report = json.loads(out)
        [slot] = [start for check, item, start, _ in checks.OWNERS
                  if (check, item) == ("euclid_defect", "A")]
        assert report["values"][slot] == abs(r) / scale
        entry = report["checks"]["euclid_defect"]
        assert (entry["max_residual"], entry["worst_item"]) == (abs(r) / scale, "A")
        assert entry["passed"] is (abs(r) / scale <= tol) is True


class TestEntries:
    """Every check's entry, in both reports: each check in NAMES order, each
    record evaluated or skipped, and the worst printed as the fold gives it."""

    @staticmethod
    def per_triangle(name) -> int:
        return sum(1 for check, _, _ in checks.RECORDS if check == name)

    @pytest.mark.parametrize("argv, triangles", [(("verify", "--sides", "3,4,5"), 1),
                                                 (("fuzz", "--count", "200", "--seed", "7"), 200)])
    def test_every_record_is_evaluated_or_skipped(self, capsys, argv, triangles):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        entries = json.loads(out)["checks"]
        assert list(entries) == list(checks.NAMES)
        for name, entry in entries.items():
            assert list(entry) == ["evaluated", "skipped", "max_residual", "worst_item", "passed"]
            assert entry["evaluated"] + entry["skipped"] == self.per_triangle(name) * triangles
        if argv[0] == "verify":  # right at C: its defect sign and two positivity checks skip
            skipping = {"defect_sign": 1, "squares_positivity": 1, "angles_positivity": 1}
            assert {name: entry["skipped"] for name, entry in entries.items()
                    if entry["skipped"]} == skipping

    def test_check_skipped_on_every_record_prints_null_and_passes(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--sides", "3,4,5")
        for name in ("squares_positivity", "angles_positivity"):
            assert (f'"{name}": {{"evaluated": 0, "skipped": 1, "max_residual": null, '
                    '"worst_item": null, "passed": true}') in out

    @pytest.mark.parametrize("argv", [("verify", "--sides", "2,3,4"),
                                      ("verify", "--points=0.3,0.1,1.7,0.2,0.4,2.9"),
                                      ("fuzz", "--count", "200", "--seed", "7")])
    def test_printed_worst_is_the_fold_value(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv)
        printed = {name: entry["max_residual"] for name, entry in json.loads(out)["checks"].items()}
        if argv[0] == "fuzz":
            entries, _ = fold_records(200, 7, geometry.TOLERANCE)
        else:
            t = cli._triangle_from_args(cli._parse(list(argv)))
            entries, _ = fold_records(1, 0, geometry.TOLERANCE, sample=lambda rng: t.frame)
        expected = {name: entry["max_residual"] for name, entry in entries.items()}
        assert printed == expected
        # Residuals below 5e-13 print as they are, not as 0.
        assert any(0.0 < value < 5e-13 for value in printed.values())

    def test_tiny_pair_areas_print_nonzero(self, capsys, tmp_path):
        # An equilateral triangle of side 1e-7 has pair areas of 5e-15 each.
        code, out, _ = run_cli(capsys, "figure", "--kind", "cuoco", "--sides", "1e-7,1e-7,1e-7",
                               "--precision", "12", "--out", str(tmp_path / "f.svg"))
        assert code == 0
        areas = json.loads(out)["report"]["pair_areas"]
        built = decomposition.build(triangle_from_sides(1e-7, 1e-7, 1e-7)).pair_areas
        assert areas == [built.R, built.S, built.T]
        assert len(areas) == 3 and all(area > 0 for area in areas)


def recovered(report) -> dict:
    """Every value a cuoco-report/1 verify report printed for its checks,
    from a cuoco-report/2 one, keyed as /1 nested them."""
    sides, angles = report["sides"], report["angles"]
    k, values, tol = report["constructions"], report["values"], report["tol"]
    a, b, c = sides["a"], sides["b"], sides["c"]
    cosines = [math.cos(angles[name]) for name in ("alpha", "beta", "gamma")]
    chain = k["chain"]
    quads = k["quad_areas"]
    return {
        "cosine_identity": [a * a - b * b - c * c + 2.0 * b * c * cosines[0],
                            b * b - a * a - c * c + 2.0 * a * c * cosines[1],
                            c * c - a * a - b * b + 2.0 * a * b * cosines[2]],
        "euclid_defect": {v: k["euclid_defects"][2 * i:2 * i + 2] for i, v in enumerate("ABC")},
        "pairs": {p: [quads[2 * i], quads[2 * i + 1], abs(quads[2 * i] - quads[2 * i + 1])]
                  for i, p in enumerate("RST")},
        "trig_vs_exact": {p: [report["pair_areas"][i], k["trig_pair_areas"][i]]
                          for i, p in enumerate("RST")},
        "similarity": {v: k["similarity"][4 * i:4 * i + 3] for i, v in enumerate("ABC")},
        "derivation": [chain, chain[0] - chain[-1], _worst([abs(step - chain[0])
                                                          for step in chain[1:]])],
        # Each record's verdict, from its slots' |residual| / scale.
        "passed": {(check, item): _worst(values[start:end]) <= tol
                   for check, item, start, end in checks.OWNERS if values[start] is not None},
    }


def built(t) -> dict:
    """The same values from the public builders."""
    d = decomposition.build(t)
    quads = [decomposition.shoelace(panel.quad) for panel in d.panels]
    trace = decomposition.derive_cosine_theorem(d)
    return {
        "cosine_identity": list(cosine_law.verify_cosine_identity(t.metrics)),
        "euclid_defect": {v: list(cosine_law.euclid_defect(t, v)) for v in "ABC"},
        "pairs": {p: [quads[2 * i], quads[2 * i + 1], abs(quads[2 * i] - quads[2 * i + 1])]
                  for i, p in enumerate("RST")},
        "trig_vs_exact": {p: [decomposition.panel_area_exact(p, t),
                              decomposition.panel_area_trig(p, t.metrics)] for p in "RST"},
        "similarity": {v: [report.ch, report.ck, report.residual] for v, report in
                       ((v, decomposition.similarity_check(t, v)) for v in "ABC")},
        "derivation": [[step.value for step in trace.steps], trace.residual, trace.max_deviation],
    }


def test_version_1_verify_values_are_recovered_bit_for_bit(capsys):
    """No value a /1 verify report printed is lost: each is read or computed
    back from the /2 report, equal in repr (so -0.0 and NaN too) to what the
    public builders give, and both circles print as incircle and
    circumcircle build them."""
    argvs = [argv for argv, _ in PINNED_REPORTS if argv[0] == "verify"]
    argvs += [("verify", triangle) for triangle in PINNED_VERIFY_INPUTS]
    reports = 0
    for argv in argvs:
        code, out, _ = run_cli(capsys, *argv)
        if code == 2:
            continue
        report = json.loads(out)
        t = cli._triangle_from_args(cli._parse(list(argv)))
        values = recovered(report)
        passed = values.pop("passed")
        assert repr(values) == repr(built(t)), argv
        assert all(passed.values()) is (code == 0)
        inc, circ = circles.incircle(t), circles.circumcircle(t)
        assert repr(report["constructions"]["incircle"]) == repr([
            inc.center.x, inc.center.y, inc.radius, *inc.tangent_params.values(),
            *(coordinate for point in inc.tangent_points.values() for coordinate in (point.x, point.y)),
            *inc.tangent_lengths.values()])
        circle = report["constructions"]["circumcircle"]
        splits = [circ.splits[v][w] for v, w in ("AB", "AC", "BC", "BA", "CA", "CB")]
        assert repr([circle[0], circle[1], circle[4], *circle[5:]]) == repr(
            [circ.center.x, circ.center.y, circ.radius, *splits])
        reports += 1
    assert reports >= 15


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
# PINNED_VERIFY_INPUTS.
VERIFY_PIN_DIGEST = "12427f2d690d35d95bc227a5ed0a20e63b35b808d232a1a7b20fe90315cc2307"

# SHA-256 of the repr of every slot and construction `verify` prints, (each
# slot's |residual| / scale, skipped slots, the frame from CORNERS on, trig
# pair areas, Euclid defects), for the frame of the Fraction triangle
# RATIONAL, which `verify` cannot take. Its exact residuals (the defects, the
# quad areas, the similarity and chain values) are in the frame.
RATIONAL_ROWS_DIGEST = "79751215fcb511a9ca2454d0fac93ade641371f0b7d726660e477b7ce4dd48b9"


def test_verify_outputs_match_pinned_digest(capsys):
    """Every report, verdict and error message on the inputs above, byte for
    byte, including which check fails on the inputs that fail today. Moving
    to the triangle's own frame and scale (ROADMAP item 1) is expected to
    change these verdicts and re-pin this digest, saying which changed."""
    digest = hashlib.sha256()
    for triangle in PINNED_VERIFY_INPUTS:
        digest.update(repr(run_cli(capsys, "verify", triangle)).encode("utf-8"))
    assert digest.hexdigest() == VERIFY_PIN_DIGEST
    f = RATIONAL.frame
    values, skipped, trig = checks._rows(f)
    rows = (values, skipped, f[geometry.CORNERS.start:], trig, f[geometry.DEFECTS])
    assert hashlib.sha256(repr(rows).encode("utf-8")).hexdigest() == RATIONAL_ROWS_DIGEST


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
COUNTEREXAMPLE_PIN_DIGEST = "0725dbde5dc7276a4e4be9806e20f846e16a793b77533fa62cdb3e650928f8ec"


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

    @pytest.mark.parametrize("argv, code", [
        (("verify", "--sides", "2,3,4"), 0),
        (("fuzz", "--count", "50", "--tol", "1e-17", "--seed", "1"), 1),
    ])
    def test_closed_pipe_keeps_the_exit_code(self, argv, code):
        # As `cuoco verify --sides 2,3,4 | true`, but the reader is surely
        # gone before the report is written: its end is closed first.
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([sys.executable, "-m", "cuoco.cli", *argv], stdout=write,
                                    stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert result.stderr == ""  # no traceback
        assert result.returncode == code

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

# Command lines the direct path reads, and ones it leaves to the full tree:
# help, unknown and extra arguments, bad values.
PARSER_ARGVS = [
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
    # Lines the direct path reads, and the edges where it leaves the line
    # to argparse: an abbreviation, a separate value starting with "-",
    # `--` as a value, a flag given "=", a missing value or required
    # option, a bad type or choice.
    ("solve", "--L=-1", "--M=-2e3", "--N", "3", "--degrees", "--degrees"),
    ("verify", "--points=-3,4,0,0,1,1", "--tol", "0", "--points", "0,0,4,0,0,3"),
    ("verify", "--sides", ""),
    ("fuzz",),
    ("fuzz", "--seed=", "--count=7"),
    ("figure", "--kind=cuoco", "--sides=3,4,5", "--out", "a b=c.svg", "--precision=2"),
    ("verify", "--sid=3,4,5"),
    ("solve", "--L", "1", "--M", "2", "--N", "--3"),
    ("verify", "--sides=--"),
    ("solve", "--L=1", "--M=2", "--N=3", "--degrees=yes"),
    ("figure", "--kind", "cuoco", "--sides=3,4,5", "--out", "x.svg", "--no-labels="),
    ("verify", "--tol"),
    ("solve", "--L=1", "--N=3"),
    ("verify", "--sides=3,4,5", "--tol=-1"),
    ("figure", "--kind", "cuoco", "--sides=3,4,5", "--out", "x.svg", "--precision=1.5"),
    ("solve", "--L=1", "--M=2", "--N=3", "--interpret=nope"),
    ("verify", "--sides", "3,4,5", "--help"),
]


# What the property below gives an option: values its type takes, edge
# values for the direct path, faults it puts in a line, and tokens that are
# no option of any command.
LINE_VALUES = {None: ["3,4,5", "0,0,4,0,1,3", "a b=c"], float: ["1", "2.5", "1e400"],
               int: ["5", "0"], cli._tolerance: ["0", "1e-6"]}
LINE_EDGES = ["-1", "-3,4,0,0,1,1", "x", "1.5", "nan", "", "--", "-h", "nope"]
LINE_FAULTS = ["edge", "abbreviate", "drop", "repeat", "form", "stray"]
LINE_STRAYS = ["--", "--bogus", "extra", "-h", "--help", "-1"]


def full_tree_parse(argv):
    """What `_parse` must make of argv: the full tree's parse, except that an
    option argparse leaves a list, as on Python 3.11 after `--opt=--` (or
    "--", as later versions leave it), is refused as a missing value."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    given_dashes = [dest for dest, value in vars(args).items()
                    if isinstance(value, list) or value == "--"]
    if given_dashes:
        parser.error(f"argument --{given_dashes[0]}: expected one argument")
    return args


def declined(argv) -> bool:
    """Whether the direct path, `_read`, leaves argv to the full tree."""
    return not (argv and argv[0] in cli.COMMANDS) or cli._read(argv[0], list(argv[1:])) is None


def parsed_quietly(parse, argv) -> tuple:
    """What parse makes of argv: the repr of each of the namespace's fields
    (so a NaN equals itself) or the exit code, and what it printed to
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {name: repr(value) for name, value in vars(parse(list(argv))).items()}
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParser:
    """A well-formed command line is read straight from its command's
    options; a fresh full tree parses the rest, and prints help, errors and
    usage lines."""

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
        cli._command_parser.cache_clear()
        built = self.built_parsers(monkeypatch)
        assert run_cli(capsys, "verify", "--sides", "3,4,5")[0] == 0
        assert len(built) == 1
        # A later request of the same command reuses that parser.
        assert run_cli(capsys, "verify", "--points=0,0,4,0,0,3")[0] == 0
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_tree(self):
        # A caller may change the tree it gets back.
        assert cli.build_parser() is not cli.build_parser()

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

    @staticmethod
    def parsed(capsys, parse, argv) -> tuple:
        """What parse makes of argv: the namespace's fields or the exit
        code, and what it printed."""
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv))
    def test_one_subparser_parses_as_the_full_tree(self, capsys, monkeypatch, argv):
        full_tree = cli.build_parser
        expected = self.parsed(capsys, full_tree_parse, argv)
        trees = []
        monkeypatch.setattr(cli, "build_parser", lambda: trees.append(1) or full_tree())
        assert self.parsed(capsys, cli._parse, argv) == expected
        # The full tree is built exactly when the direct path declines the line.
        assert len(trees) == declined(argv)

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_direct_path_parses_as_the_full_tree(self, data):
        # A well-formed line from a command's own options, each required one
        # and some others, in the "=" or separate form, then up to two
        # faults: an edge value, an abbreviation, a dropped, repeated or
        # re-formed option, or a stray token.
        name = data.draw(st.sampled_from(NAMES), label="command")
        actions = [action for action in cli._command_parser(name)[0]._actions if action.option_strings]
        groups = []  # [option, value, form]: form "=", "separate" or "flag"
        for action in data.draw(st.permutations(actions)):
            if action.required or data.draw(st.booleans()):
                good = action.choices or LINE_VALUES.get(action.type, LINE_VALUES[None])
                form = "flag" if action.nargs == 0 else data.draw(st.sampled_from(["=", "separate"]))
                groups.append([action.option_strings[0], data.draw(st.sampled_from(list(good))), form])
        for fault in data.draw(st.lists(st.sampled_from(LINE_FAULTS), max_size=2), label="faults"):
            if fault == "stray":
                token = data.draw(st.sampled_from(LINE_STRAYS))
                groups.insert(data.draw(st.integers(0, len(groups))), [token, "x", "flag"])
                continue
            if not groups:
                continue
            group = groups[data.draw(st.integers(0, len(groups) - 1))]
            if fault == "edge":
                group[1] = data.draw(st.sampled_from(LINE_EDGES))
            elif fault == "abbreviate" and len(group[0]) > 2:
                group[0] = group[0][:data.draw(st.integers(2, len(group[0]) - 1))]
            elif fault == "drop":
                groups.remove(group)
            elif fault == "repeat":
                groups.insert(data.draw(st.integers(0, len(groups))), list(group))
            elif fault == "form":  # a flag given "=", or a value given another form
                group[2] = "=" if group[2] == "flag" else data.draw(st.sampled_from(["=", "separate", "flag"]))
        argv = [name]
        for option, value, form in groups:
            argv += {"=": [f"{option}={value}"], "separate": [option, value], "flag": [option]}[form]
        expected = parsed_quietly(full_tree_parse, argv)
        full_tree, trees = cli.build_parser, []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda: trees.append(1) or full_tree())
            assert parsed_quietly(cli._parse, argv) == expected, argv
        # The full tree is built exactly when the direct path declines the line.
        assert len(trees) == declined(argv), argv

    @pytest.mark.parametrize("argv", [
        ("verify", "--points=-3,4,0,0,1,1"),
        ("verify", "--sides=3.5,4.25,5.0"),
        ("solve", "--L=1.5", "--M=2.0", "--N=3.25", "--interpret", "sides", "--sides=3.5,4.25,5.0"),
        ("solve", "--L=1.5", "--M=2.0", "--N=3.25", "--interpret", "angles", "--points=-3,4,0,0,1,1"),
        *(("figure", "--kind", kind, "--points=-3,4,0,0,1,1", "--out", f"{kind}.svg")
          for kind in figures.KINDS),
        ("fuzz", "--count", "100", "--seed", "281474976710655"),
    ], ids=" ".join)
    def test_bench_shaped_lines_make_no_argparse_parse(self, monkeypatch, argv):
        # Each line's shape as the benchmark workloads send it.
        parses = []
        known = argparse.ArgumentParser.parse_known_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            lambda self, *args: parses.append(args) or known(self, *args))
        args = cli._parse(list(argv))
        assert parses == []
        assert args == cli.build_parser().parse_args(list(argv))
        assert len(parses) == 2  # the same counter sees the full tree and its subparser parse

    def test_a_reused_parser_parses_as_a_fresh_full_tree(self, capsys):
        # Every line through one set of command parsers, in order and then
        # reversed, so each parser reads lines after ones it refused part-way
        # (a bad type, a missing required option) and after ones it took.
        cli._command_parser.cache_clear()
        for argv in PARSER_ARGVS + PARSER_ARGVS[::-1]:
            expected = self.parsed(capsys, full_tree_parse, argv)
            assert self.parsed(capsys, cli._parse, argv) == expected, argv
        assert cli._command_parser.cache_info().misses == len(NAMES)

    @pytest.mark.parametrize("argv, option", [
        (("verify", "--sides=--"), "--sides"),
        (("fuzz", "--seed=--"), "--seed"),
        (("figure", "--kind=cuoco", "--sides=2,3,4", "--out=--"), "--out"),
        (("verify", "--sides=2,3,4", "--points=--"), "--points"),
    ], ids=lambda value: " ".join(value) if isinstance(value, tuple) else value)
    def test_a_dashes_value_is_refused(self, capsys, monkeypatch, tmp_path, argv, option):
        # argparse leaves `--opt=--` a list, which no command can read: `_parse`
        # refuses it before any command runs, so nothing is written.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"cuoco: error: argument {option}: expected one argument"]
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        # The `cuoco` console script calls main() with no arguments.
        monkeypatch.setattr(sys, "argv", ["cuoco", "verify", "--sides", "3,4,5"])
        code = main()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["classification"]["kind"] == "right"


def plain(obj):
    """What a report holds, as JSON reads it back: each record as its fields,
    in order, each tuple as a list, every float and int as it is."""
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(value) for value in obj]
    if isinstance(obj, geometry._Record):
        return {name: plain(getattr(obj, name)) for name in obj._fields}
    return obj


def emitted(*argv) -> list:
    """The reports the command of argv returns for `main` to print."""
    args = cli._parse(list(argv))
    try:
        return [cli.COMMANDS[args.command][2](args)[0]]
    except (cli.InputError, geometry.GeometryError, ValueError):
        return []  # refused: main prints no report


class TestReportWriter:
    """A report prints as `json.dumps(report, default=_fields)`, one line,
    and reads back as the values it holds, bit for bit: floats by repr, so
    no nonzero value prints as 0, and a NaN as NaN."""

    @staticmethod
    def assert_written_as_reference(report):
        text = written(report)
        assert "\n" not in text
        # repr() tells 0.0 from -0.0 and compares a NaN equal to a NaN.
        assert repr(json.loads(text)) == repr(plain(report))

    @pytest.mark.parametrize("argv", [argv for argv, _ in PINNED_REPORTS])
    def test_pinned_reports(self, capsys, argv):
        [report] = emitted(*argv)
        self.assert_written_as_reference(report)
        assert run_cli(capsys, *argv)[1] == written(report) + "\n"

    @pytest.mark.parametrize("triangle", PINNED_VERIFY_INPUTS)
    def test_verify_on_hard_inputs(self, triangle):
        for report in emitted("verify", triangle):  # none when refused
            self.assert_written_as_reference(report)

    def test_fuzz_reports(self):
        # Some tolerances stop each run at a counterexample, which prints a triangle.
        tolerances = (1e-9, 5e-15, 1e-17, 0.0)
        for seed in range(2000):
            self.assert_written_as_reference(run_fuzz(3, seed, tolerances[seed % 4]))

    def test_figure_and_solve_reports(self, tmp_path):
        for kind in figures.KINDS:
            for report in emitted("figure", "--kind", kind, "--sides", "2,3,4",
                                  "--out", str(tmp_path / "f.svg")):
                self.assert_written_as_reference(report)
        for reading in ("squares", "sides", "angles"):
            for report in emitted("solve", "--L", "4", "--M", "9", "--N", "16",
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
