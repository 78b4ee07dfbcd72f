"""Command line driver: verify, solve, figure, fuzz.

`verify` and `fuzz` are shells over one catalogue, `checks.rows`: `verify`
prints every row of one triangle, `fuzz` folds the rows of many random
triangles into each check's worst |residual| / scale.

Reports go to stdout as JSON (schema "cuoco-report/1", floats rounded to
twelve decimals so identical inputs give byte-identical output);
diagnostics go to stderr. Exit codes: 0 all checks passed, 1 a
verification check failed, 2 invalid usage or input.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import checks, circles, cosine_law, decomposition, figures, three_sum
from .geometry import (
    TOLERANCE,
    GeometryError,
    Point,
    Triangle,
    VERTICES,
    triangle_from_sides,
    _point,
    _Record,
    _worst,
)

SCHEMA = "cuoco-report/1"


class InputError(Exception):
    """Bad command input that argparse cannot catch itself."""


def _num(text: str):
    """Parse a number, keeping integers integral so exact paths stay exact."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_csv(text: str, expected: int, what: str) -> list:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != expected:
        raise InputError(f"{what} needs {expected} comma-separated numbers, got {text!r}")
    try:
        return [_num(piece) for piece in parts]
    except ValueError:
        raise InputError(f"could not parse {what}: {text!r}") from None


def _triangle_from_args(args) -> Triangle:
    if getattr(args, "sides", None) and getattr(args, "points", None):
        raise InputError("give either --sides or --points, not both")
    if getattr(args, "sides", None):
        a, b, c = _parse_csv(args.sides, 3, "--sides")
        return triangle_from_sides(a, b, c)
    if getattr(args, "points", None):
        coords = _parse_csv(args.points, 6, "--points")
        return Triangle(
            A=Point(coords[0], coords[1]),
            B=Point(coords[2], coords[3]),
            C=Point(coords[4], coords[5]),
        )
    raise InputError("a triangle is required: pass --sides a,b,c or --points x1,y1,x2,y2,x3,y3")


def _rounded(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return round(obj, 12)
    if isinstance(obj, dict):
        return {key: _rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(value) for value in obj]
    if isinstance(obj, _Record):  # a record prints as its fields, in order
        return {name: _rounded(getattr(obj, name)) for name in obj._fields}
    return obj


def _emit(report: dict) -> None:
    print(json.dumps(_rounded(report), indent=2))


def _point_json(p: Point) -> list:
    return [p.x, p.y]


def _triangle_json(t: Triangle) -> dict:
    return {name: _point_json(getattr(t, name)) for name in VERTICES}


def _pairs_entry(*quads) -> dict:
    pairs = zip(decomposition.PAIR_CLASSES, quads[::2], quads[1::2])
    return {"pairs": {pair: {"first": first, "second": second, "delta": abs(first - second)}
                      for pair, first, second in pairs}}


# Check -> verify's entry for one record, from the record's detail tuple.
_VERIFY_ENTRIES = {
    "cosine_identity": lambda residuals: {"residuals": residuals},
    "euclid_defect": lambda defect, residual: {"defect": defect, "residual": residual},
    "pair_equivalence": _pairs_entry,
    "trig_vs_exact": lambda exact, trig: {"exact": exact, "trig": trig},
    "similarity": lambda ch, ck, residual: {"ch": ch, "ck": ck, "residual": residual},
    # The trace as derive_cosine_theorem returns it, printed as its fields.
    "derivation": lambda *detail: _rounded(decomposition._trace(*detail)),
}


def cmd_verify(args) -> int:
    t = _triangle_from_args(args)
    tol = args.tol
    m = t.metrics
    entries, folded = {}, {}
    passed = True
    for check, item, residual, scale, detail in checks.rows(t):
        if detail is None:  # one entry per check, filled in below
            entries.setdefault(check, None)
            folded.setdefault(check, []).append(abs(residual) / scale)
            continue
        entry = {**_VERIFY_ENTRIES[check](*detail), "passed": abs(residual) / scale <= tol}
        passed = passed and entry["passed"]
        if item is None:
            entries[check] = entry
        else:
            entries.setdefault(check, {})[item] = entry
    for check, values in folded.items():
        # The worst |residual| / scale, as fuzz reports it; a NaN fails.
        worst = _worst(values)
        entries[check] = {"max_residual": worst, "passed": worst <= tol}
        passed = passed and worst <= tol
    _emit({
        "schema": SCHEMA,
        "command": "verify",
        "triangle": _triangle_json(t),
        "sides": {"a": m.a, "b": m.b, "c": m.c},
        "angles": {"alpha": m.alpha, "beta": m.beta, "gamma": m.gamma},
        "classification": m.classification,
        "tol": tol,
        # The exact pair areas, as the trig_vs_exact rows hold them.
        "pair_areas": [entries["trig_vs_exact"][p]["exact"] for p in decomposition.PAIR_CLASSES],
        "checks": entries,
        "passed": passed,
    })
    return 0 if passed else 1


# solve --interpret: each reading takes the construction it reads from the triangle.
_READINGS = {
    "squares": lambda t, tol: three_sum.interpret_squares(t, tol),
    "sides": lambda t, tol: three_sum.interpret_sides(circles.incircle(t), tol),
    "angles": lambda t, tol: three_sum.interpret_angles(circles.circumcircle(t), tol),
}


def cmd_solve(args) -> int:
    values = [args.L, args.M, args.N]
    if args.degrees:
        values = [math.radians(v) for v in values]
    system = three_sum.ThreeSum(*values)
    report = {
        "schema": SCHEMA,
        "command": "solve",
        "system": system,
        "units": "radians" if args.degrees else "as-given",
        "solution": three_sum.solve(system),
        "all_positive": three_sum.all_positive(system),
    }
    passed = True
    if args.interpret:
        interpretation = _READINGS[args.interpret](_triangle_from_args(args), args.tol)
        report["interpretation"] = interpretation
        passed = interpretation.passed
    elif getattr(args, "sides", None) or getattr(args, "points", None):
        raise InputError("triangle input is only used together with --interpret")
    report["passed"] = passed
    _emit(report)
    return 0 if passed else 1


# Construction type -> the headline numbers `figure` prints beside the file.
_RECEIPTS = {
    Triangle: lambda t: {"vertex": "B", "defect": cosine_law.euclid_defect(t, "B")[0]},
    decomposition.CuocoDecomposition: lambda d: {
        "pair_areas": [d.pair_areas.R, d.pair_areas.S, d.pair_areas.T]},
    circles.IncircleData: lambda inc: {
        "center": _point_json(inc.center), "radius": inc.radius,
        "tangent_lengths": inc.tangent_lengths},  # keyed A, B, C
    circles.CircumcircleData: lambda circ: {
        "center": _point_json(circ.center), "radius": circ.radius},
}


def cmd_figure(args) -> int:
    t = _triangle_from_args(args)
    spec = figures.FigureSpec(kind=args.kind, labels=not args.no_labels, precision=args.precision)
    data = figures.construction(args.kind, t)
    receipt = _RECEIPTS[type(data)](data)
    text = figures.render(data, spec)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.out!r}: {exc}") from exc
    _emit({
        "schema": SCHEMA,
        "command": "figure",
        "kind": args.kind,
        "out": args.out,
        "bytes": len(text.encode("utf-8")),
        "report": receipt,
    })
    return 0


def random_triangle(rng: random.Random) -> Triangle:
    """Rejection-sample a usable triangle with coordinates in [-10, 10].

    Collinear triples are rejected outright; numerically thin ones (tiny
    area or side) are rejected as well, since residual checks at 1e-9
    relative are not meaningful at worse conditioning.
    """
    draw = rng.random
    while True:
        # rng.uniform(-10.0, 10.0) inlined, the same arithmetic, drawn x then
        # y for A, B, C. Each is finite, so the points skip Point's check.
        try:
            t = Triangle(_point(-10.0 + 20.0 * draw(), -10.0 + 20.0 * draw()),
                         _point(-10.0 + 20.0 * draw(), -10.0 + 20.0 * draw()),
                         _point(-10.0 + 20.0 * draw(), -10.0 + 20.0 * draw()))
        except GeometryError:
            continue
        m = t.metrics
        if abs(t.twice_area) < 1e-6 or min(m.a, m.b, m.c) < 1e-6:
            continue
        return t


def run_fuzz(count: int, seed, tol: float) -> dict:
    rng = random.Random(seed)
    maxima: dict[str, float] = {}
    # Looked up once per call, not per record; a patched checks.rows is seen.
    setdefault, rows = maxima.setdefault, checks.rows
    counterexample = None
    for index in range(count):
        t = random_triangle(rng)
        for name, _, residual, scale, _ in rows(t):
            value = abs(residual) / scale
            # A check's first record creates its entry, 0.0 included. As in
            # _worst, a NaN residual (the one value not equal to itself)
            # is kept as the maximum; `not <=` fails it.
            if value > setdefault(name, value) or value != value:
                maxima[name] = value
            if not value <= tol and counterexample is None:
                counterexample = {
                    "index": index,
                    "check": name,
                    "residual": value,
                    "triangle": _triangle_json(t),
                }
        if counterexample is not None:
            break
    passed = counterexample is None
    return {
        "schema": SCHEMA,
        "command": "fuzz",
        "count": count,
        "seed": str(seed),
        "tol": tol,
        "checks": {name: {"max_residual": maxima[name], "passed": maxima[name] <= tol}
                   for name in sorted(maxima)},
        "counterexample": counterexample,
        "passed": passed,
    }


def cmd_fuzz(args) -> int:
    if args.count <= 0:
        raise InputError(f"--count must be positive, got {args.count}")
    seed = args.seed
    try:
        seed = int(seed)
    except ValueError:
        pass  # strings are valid seeds
    report = run_fuzz(args.count, seed, args.tol)
    _emit(report)
    return 0 if report["passed"] else 1


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite number >= 0 (a NaN would pass nothing)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _add_triangle_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sides", help="side lengths a,b,c")
    parser.add_argument("--points", help="vertex coordinates x1,y1,x2,y2,x3,y3")


def _verify_args(p: argparse.ArgumentParser) -> None:
    _add_triangle_args(p)
    p.add_argument("--tol", type=_tolerance, default=TOLERANCE)


def _solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--degrees", action="store_true",
                   help="treat L, M, N as degrees and convert to radians")
    p.add_argument("--interpret", choices=tuple(_READINGS),
                   help="cross-check the solution against a triangle")
    p.add_argument("--tol", type=_tolerance, default=TOLERANCE)
    _add_triangle_args(p)


def _figure_args(p: argparse.ArgumentParser) -> None:
    _add_triangle_args(p)
    p.add_argument("--kind", choices=figures.KINDS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--precision", type=int, default=6)
    p.add_argument("--no-labels", action="store_true")


def _fuzz_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", default="0")
    p.add_argument("--tol", type=_tolerance, default=TOLERANCE)


# name: (help, add_arguments, handler), in the order help lists them.
COMMANDS = {
    "verify": ("run every identity check on one triangle", _verify_args, cmd_verify),
    "solve": ("solve x+y=L, x+z=M, y+z=N", _solve_args, cmd_solve),
    "figure": ("write an SVG drawing", _figure_args, cmd_figure),
    "fuzz": ("random triangles through every invariant check", _fuzz_args, cmd_fuzz),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The top-level parser with only the subparser `argv[0]` names (one
    costs more than most requests), or all four when it names none, so help
    and errors list every command. The explicit usage and subparser `prog`
    keep each usage line as the full tree prints it.
    """
    parser = argparse.ArgumentParser(
        prog="cuoco",
        usage="%(prog)s [-h] {" + ",".join(COMMANDS) + "} ...",
        description="Verify the law of cosines constructively and draw the figures behind it.",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="cuoco")
    names = [argv[0]] if argv and argv[0] in COMMANDS else COMMANDS
    for name in names:
        help_text, add_arguments, _ = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return COMMANDS[args.command][2](args)
    except (InputError, GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
