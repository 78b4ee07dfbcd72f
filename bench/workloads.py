"""Inputs and output checks for the cuoco benchmark workloads.

Every argv is generated here from the workload seed; the program sees only
the generated command lines. The workloads:

- `fuzz`: `cuoco fuzz --count K --seed <derived>`, the invariant checks over
  K random triangles per call. Nearly all time is in the geometry,
  decomposition, three-sum, circle and cosine-law layers.
- `cli_requests`: one-shot `verify`, `solve --interpret` and `figure`
  requests in a fixed proportion (each kind once per shuffled cycle), so
  per-call parsing, JSON output and SVG rendering dominate.
- `cold_start`: one `python -m cuoco.cli` process per request, `verify`
  alternating with `figure`, so interpreter start-up and import dominate.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from xml.etree import ElementTree

WORKLOADS = ("fuzz", "cli_requests", "cold_start")

# Triangles per fuzz call: enough that argparse stays a small share of a call.
K = 100
# Lattice coordinates are drawn from [-LATTICE, LATTICE].
LATTICE = 20
FIGURE_KINDS = ("euclid_defect", "cuoco", "cuoco_pairs", "cuoco_obtuse", "incircle", "circumcircle")
REQUEST_KINDS = (
    "verify_points",
    "verify_sides",
    "solve_squares",
    "solve_sides",
    "solve_angles",
) + tuple(f"figure_{kind}" for kind in FIGURE_KINDS)
# Untimed operations run before measuring, per workload.
WARMUP = {"fuzz": 2, "cli_requests": len(REQUEST_KINDS), "cold_start": 2}
PROCESS_TIMEOUT_S = 60


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    units: int = 1  # triangles for fuzz, else one request or process
    out: str | None = None  # SVG file the op must write


def lattice_points(rng: random.Random) -> str:
    """Six integer coordinates of a non-collinear triangle, comma-separated."""
    while True:
        x1, y1, x2, y2, x3, y3 = (rng.randint(-LATTICE, LATTICE) for _ in range(6))
        if (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) != 0:
            return ",".join(map(str, (x1, y1, x2, y2, x3, y3)))


def float_sides(rng: random.Random) -> str:
    """Three side lengths in [1, 10] that are clearly not degenerate."""
    while True:
        a, b, c = (round(rng.uniform(1.0, 10.0), 6) for _ in range(3))
        if a + b > 1.05 * c and a + c > 1.05 * b and b + c > 1.05 * a:
            return f"{a!r},{b!r},{c!r}"


def _triangle_arg(rng: random.Random, lattice: bool) -> str:
    # The `=` form matters: argparse reads a separate "-3,4,..." as an option.
    return "--points=" + lattice_points(rng) if lattice else "--sides=" + float_sides(rng)


def _request(kind: str, rng: random.Random, outdir: str) -> Op:
    if kind == "verify_points":
        return Op(("verify", _triangle_arg(rng, lattice=True)))
    if kind == "verify_sides":
        return Op(("verify", _triangle_arg(rng, lattice=False)))
    if kind.startswith("solve_"):
        interpret = kind[len("solve_"):]
        lmn = [f"--{name}={round(rng.uniform(1.0, 10.0), 6)!r}" for name in "LMN"]
        triangle = _triangle_arg(rng, lattice=interpret != "sides")
        return Op(("solve", *lmn, "--interpret", interpret, triangle))
    figure = kind[len("figure_"):]
    out = os.path.join(outdir, f"{figure}.svg")
    triangle = _triangle_arg(rng, lattice=FIGURE_KINDS.index(figure) % 2 == 0)
    return Op(("figure", "--kind", figure, triangle, "--out", out), out=out)


def ops(workload: str, seed: int, outdir: str, tag: str = "run"):
    """Endless, seed-determined stream of operations for a workload."""
    rng = random.Random(f"{workload}:{tag}:{seed}")
    if workload == "fuzz":
        while True:
            yield Op(("fuzz", "--count", str(K), "--seed", str(rng.getrandbits(48))), units=K)
    elif workload == "cli_requests":
        while True:
            order = list(REQUEST_KINDS)
            rng.shuffle(order)
            for kind in order:
                yield _request(kind, rng, outdir)
    elif workload == "cold_start":
        index = 0
        while True:
            yield Op(("verify", _triangle_arg(rng, lattice=False)))
            figure = FIGURE_KINDS[index % len(FIGURE_KINDS)]
            out = os.path.join(outdir, f"cold-{figure}.svg")
            yield Op(("figure", "--kind", figure, _triangle_arg(rng, lattice=True), "--out", out), out=out)
            index += 1
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def check(op: Op, code, stdout: str) -> str | None:
    """Why the op's output is wrong, or None when it is right.

    A written SVG is removed after it is checked, so the next op that names
    the same file must write it again.
    """
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if code != 0:
        found = report.get("counterexample") if isinstance(report, dict) else None
        return f"exit code {code}" + (f", counterexample {json.dumps(found)}" if found else "")
    if report is None:
        return "stdout is not JSON"
    if not isinstance(report, dict) or not str(report.get("schema", "")).startswith("cuoco-report/"):
        return "report has no cuoco-report schema"
    command = op.argv[0]
    if report.get("command") != command:
        return f"report is for command {report.get('command')!r}, not {command!r}"
    if command == "figure":
        return _check_svg(op.out, report)
    if report.get("passed") is not True:
        return "report does not say passed: true"
    if command == "fuzz":
        if report.get("count") != op.units:
            return f"fuzz count {report.get('count')!r} is not {op.units}"
        if report.get("counterexample") is not None:
            return "fuzz found a counterexample"
    return None


def _check_svg(path: str, report: dict) -> str | None:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return f"figure file {path} was not written"
    os.remove(path)
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        return f"figure is not XML: {exc}"
    if not root.tag.endswith("svg"):
        return f"figure root element is {root.tag!r}"
    if report.get("bytes") != len(data):
        return f"report says {report.get('bytes')!r} bytes, file has {len(data)}"
    return None


def call_main(main, op: Op) -> tuple[float, object, str]:
    """Run `main(argv)` in this process: (seconds, exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = main(list(op.argv))
        except Exception as exc:  # an escaped exception is a failed op, not a crashed run
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue()


def call_process(command: list[str], env: dict | None = None) -> tuple[float, object, str, str]:
    """Run one child to completion: (seconds, exit code, stdout, stderr)."""
    start = perf_counter()
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - start, "timeout", "", ""
    return perf_counter() - start, proc.returncode, proc.stdout, proc.stderr
