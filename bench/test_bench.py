"""Tests of the benchmark itself: inputs, output checks and the span recorder.

    python3 -m pytest bench
"""

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import cuoco.cli  # noqa: E402
import cuoco.decomposition  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def first_ops(workload, seed, n=60, outdir="out"):
    return [op.argv for op in itertools.islice(workloads.ops(workload, seed, outdir), n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv(workload):
    assert first_ops(workload, 7) == first_ops(workload, 7)
    assert first_ops(workload, 7) != first_ops(workload, 8)


def test_triangles_are_passed_inline_and_never_collinear():
    for workload in ("cli_requests", "cold_start"):
        for argv in first_ops(workload, 3, n=300):
            for arg in argv:
                assert arg not in ("--points", "--sides")
                if arg.startswith("--points="):
                    x1, y1, x2, y2, x3, y3 = map(int, arg.split("=")[1].split(","))
                    assert (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) != 0


def test_cli_requests_cover_every_kind_once_per_cycle():
    cycle = len(workloads.REQUEST_KINDS)
    argvs = first_ops("cli_requests", 1, n=cycle)
    figures = sorted(argv[2] for argv in argvs if argv[0] == "figure")
    assert figures == sorted(workloads.FIGURE_KINDS)
    assert sorted(argv[argv.index("--interpret") + 1] for argv in argvs if argv[0] == "solve") == [
        "angles", "sides", "squares"]


def run_op(argv_op):
    elapsed, code, stdout = workloads.call_main(cuoco.cli.main, argv_op)
    assert elapsed > 0
    return code, stdout


def test_real_outputs_pass_the_check(tmp_path):
    for argv in first_ops("cli_requests", 5, n=len(workloads.REQUEST_KINDS), outdir=str(tmp_path)):
        op = workloads.Op(argv, out=argv[-1] if argv[0] == "figure" else None)
        assert workloads.check(op, *run_op(op)) is None, argv
    op = workloads.Op(("fuzz", "--count", "3", "--seed", "1"), units=3)
    assert workloads.check(op, *run_op(op)) is None


def test_wrong_reports_are_failures(tmp_path):
    fuzz = workloads.Op(("fuzz", "--count", "3", "--seed", "1"), units=3)
    code, stdout = run_op(fuzz)
    report = json.loads(stdout)
    assert workloads.check(fuzz, 1, stdout) == "exit code 1"
    assert workloads.check(fuzz, code, "not json") == "stdout is not JSON"
    for change in ({"passed": False}, {"count": 2}, {"schema": "other"}, {"command": "verify"},
                   {"counterexample": {"index": 0}}):
        assert workloads.check(fuzz, code, json.dumps(report | change)) is not None, change

    out = tmp_path / "f.svg"
    figure = workloads.Op(("figure", "--kind", "cuoco", "--points=0,0,4,0,1,3", "--out", str(out)),
                          out=str(out))
    code, stdout = run_op(figure)
    wrong_bytes = json.loads(stdout) | {"bytes": 1}
    assert "bytes" in workloads.check(figure, code, json.dumps(wrong_bytes))
    assert "not written" in workloads.check(figure, code, stdout)  # the check removed it
    out.write_text("<svg")
    assert "not XML" in workloads.check(figure, code, stdout)


def test_failed_ops_count_and_stay_in_the_samples():
    bench = run.Bench.__new__(run.Bench)
    bench.workload = "fuzz"
    bench.recorder = None
    bench.cli = types.SimpleNamespace(main=lambda argv: print("{}") or 0)
    bench.ops = workloads.ops("fuzz", 1, "out")
    phase = bench.measure(0.05)
    assert len(phase["samples"]) >= 1
    assert len(phase["failures"]) == len(phase["samples"])
    metrics = run.end_to_end(phase, 1024, 0.5)
    assert metrics["ok_ratio"] == 0.0


def test_times_are_scaled_by_the_reference_samples_around_each_op():
    clock = calibrate.Clock(calibrate.LOOP)
    clock.samples = [0.002, 0.004, 0.004]
    assert clock.scale(0) == pytest.approx(calibrate.LOOP.nominal_s / 0.003)
    assert clock.scale(2) == pytest.approx(calibrate.LOOP.nominal_s / 0.004)
    phase = {"samples": [0.1, 0.3], "scales": [0.5, 0.25], "units": 2,
             "failures": [], "reference_slowdown": 2.0}
    metrics = run.end_to_end(phase, 1024, 0.5)
    assert metrics["latency_p50_ms"] == pytest.approx(62.5)
    assert metrics["throughput_per_s"] == pytest.approx(2 / 0.125)
    assert run.wall_clock(phase)["latency_p50_ms"] == pytest.approx(200.0)


def test_traced_fuzz_records_nested_spans():
    recorder = spans.Recorder()
    original = cuoco.decomposition.build
    recorder.install()
    try:
        assert cuoco.decomposition.build is not original
        code, _ = run_op(workloads.Op(("fuzz", "--count", "4", "--seed", "2"), units=4))
    finally:
        recorder.uninstall()
    assert code == 0
    assert cuoco.decomposition.build is original
    assert recorder.absent == []
    counts = spans.per_function(recorder.spans)
    assert counts["cli.main"][0] == 1
    assert counts["decomposition.build"][0] >= 4  # at least once per triangle
    assert recorder.validations > 0
    # Calls made through names imported into another module are caught too.
    parents = {spans.NAMES[recorder.spans[parent][0]]
               for index, _, _, parent, _ in recorder.spans
               if spans.NAMES[index] == "geometry.metrics" and parent >= 0}
    assert parents - {"cli.main", "cli.random_triangle"}
    self_total = sum(self_ns for _, self_ns in counts.values())
    root = next(span for span in recorder.spans if span[3] == -1)
    assert self_total == root[2] - root[1]  # self times partition the root span


def test_absent_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(cuoco.circles, "closed_form_splits")
    recorder = spans.Recorder()
    recorder.install()
    recorder.uninstall()
    assert recorder.absent == ["circles.closed_form_splits"]


def test_self_time_subtracts_direct_children():
    synthetic = [(0, 0, 100, -1, 0), (1, 10, 40, 0, 0), (2, 15, 25, 1, 0), (1, 50, 60, 0, 0)]
    assert spans.self_times(synthetic) == [60, 20, 10, 10]


def test_parse_importtime():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |     dataclasses\n"
        "import time:       300 |       5000 |   cuoco.geometry\n"
        "import time:       200 |       9000 | cuoco\n"
        "import time:      1000 |      20000 | cuoco.cli\n"
    )
    assert spans.parse_importtime(stderr) == {"cuoco.geometry": 5000, "cuoco": 9000, "cuoco.cli": 20000}
