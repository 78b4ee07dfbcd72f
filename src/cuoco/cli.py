"""Command line driver: verify, solve, figure, fuzz.

`verify` and `fuzz` are shells over one catalogue, `cuoco.checks`: each
takes a triangle's vector from `checks._rows`, every slot's |residual| /
scale as the catalogue divides it, and `checks.entries` turns it into
every check's entry. `fuzz` merges the vectors of many random triangles by
position; it runs the catalogue on frames of six drawn coordinates and
makes a Triangle only to print a counterexample. `verify` prints its
vector and the frame's construction groups, as `geometry.LAYOUT` declares.

A well-formed command line is read straight from its command's options,
held by its parser, built once per process; argparse parses only what
that path declines, and a fresh full tree (`build_parser`) parses help,
errors and a missing or unknown command, so every usage line and message
reads as from the full tree. `figures` is imported only to draw.

Each command returns its report and exit code; `main` prints the report
as one line of JSON (schema "cuoco-report/2"), records as their fields and
floats by `repr`, so each value reads back bit for bit. Diagnostics go to
stderr. Exit codes: 0 all checks passed, 1 a verification check failed,
2 invalid usage or input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from collections import Counter

from . import checks, circles, cosine_law, decomposition, three_sum
from .geometry import (CHAIN, CIRCUMCIRCLE, DEFECTS, DOTS, INCIRCLE, QUAD_AREAS, SIDES,
                       SIMILARITY, TOLERANCE, TWICE_AREA, VERTICES, GeometryError, Point, Triangle,
                       triangle_from_sides, _frame, _Record, _worst)

SCHEMA = "cuoco-report/2"


class InputError(Exception):
    """Bad command input that argparse cannot catch itself."""


def _num(text: str):
    """Parse a number, keeping integers integral so exact paths stay exact."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[:1] in "+-" else text
        if digits.isdecimal():  # only Python's digit limit refuses these; float() reads inf
            raise InputError(f"an integer of {len(digits)} digits exceeds Python's limit of "
                             f"{sys.get_int_max_str_digits()} digits") from None
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
    if args.sides is not None and args.points is not None:
        raise InputError("give either --sides or --points, not both")
    if args.sides is not None:
        return triangle_from_sides(*_parse_csv(args.sides, 3, "--sides"))
    if args.points is None:
        raise InputError("a triangle is required: pass --sides a,b,c or --points x1,y1,x2,y2,x3,y3")
    coords = _parse_csv(args.points, 6, "--points")
    return Triangle(*(Point(*coords[i:i + 2]) for i in (0, 2, 4)))


def _fields(record: _Record) -> dict:
    """A record as its fields, in field order: how a report prints it."""
    if not isinstance(record, _Record):
        raise TypeError(f"Object of type {type(record).__name__} is not JSON serializable")
    return {name: getattr(record, name) for name in record._fields}


def _point_json(p: Point) -> list:
    return [p.x, p.y]


def _triangle_json(t: Triangle) -> dict:
    return {name: _point_json(getattr(t, name)) for name in VERTICES}


def cmd_verify(args) -> tuple:
    t = _triangle_from_args(args)
    m, f = t.metrics, t.frame
    values, skipped, trig = checks._rows(f)
    for slot in skipped:
        values[slot] = None
    entries = checks.entries(values, Counter(skipped), 1, args.tol)
    passed = all(entry["passed"] for entry in entries.values())
    S, T, R = f[DOTS]
    return {
        "schema": SCHEMA,
        "command": "verify",
        "triangle": _triangle_json(t),
        "sides": {"a": m.a, "b": m.b, "c": m.c},
        "angles": {"alpha": m.alpha, "beta": m.beta, "gamma": m.gamma},
        "classification": m.classification,
        "tol": args.tol,
        "pair_areas": [R, S, T],  # the legs' dots, the exact route
        "checks": entries,
        "values": values,
        # Groups of the frame, as geometry.LAYOUT declares them, and the trig pair areas.
        "constructions": {"quad_areas": f[QUAD_AREAS], "similarity": f[SIMILARITY],
                          "incircle": f[INCIRCLE], "circumcircle": f[CIRCUMCIRCLE],
                          "chain": f[CHAIN], "trig_pair_areas": trig, "euclid_defects": f[DEFECTS]},
        "passed": passed,
    }, 0 if passed else 1


# solve --interpret: each reading takes the construction it reads from the triangle.
_READINGS = {
    "squares": lambda t, tol: three_sum.interpret_squares(t, tol),
    "sides": lambda t, tol: three_sum.interpret_sides(circles.incircle(t), tol),
    "angles": lambda t, tol: three_sum.interpret_angles(circles.circumcircle(t), tol),
}


def cmd_solve(args) -> tuple:
    values = (args.L, args.M, args.N)
    system = three_sum.ThreeSum(*(map(math.radians, values) if args.degrees else values))
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
    elif args.sides is not None or args.points is not None:
        raise InputError("triangle input is only used together with --interpret")
    report["passed"] = passed
    return report, 0 if passed else 1


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


def cmd_figure(args) -> tuple:
    from . import figures  # only drawing needs it

    t = _triangle_from_args(args)
    spec = figures.FigureSpec(kind=args.kind, labels=not args.no_labels, precision=args.precision)
    data = figures.construction(args.kind, t)
    receipt = _RECEIPTS[type(data)](data)
    svg = figures.render(data, spec).encode("utf-8")
    try:
        with open(args.out, "wb") as handle:
            handle.write(svg)
    except OSError as exc:
        raise InputError(f"cannot write {args.out!r}: {exc}") from exc
    return {
        "schema": SCHEMA,
        "command": "figure",
        "kind": args.kind,
        "out": args.out,
        "bytes": len(svg),
        "report": receipt,
    }, 0


def _sample(rng: random.Random) -> tuple:
    """The frame of a usable random triangle, coordinates in [-10, 10].

    Collinear triples are rejected outright; numerically thin ones (tiny
    area or side) are rejected as well, since residual checks at 1e-9
    relative are not meaningful at worse conditioning.
    """
    draw = rng.random
    while True:
        # rng.uniform(-10.0, 10.0) inlined, the same arithmetic, drawn x then
        # y for A, B, C.
        try:
            f = _frame(-10.0 + 20.0 * draw(), -10.0 + 20.0 * draw(),
                       -10.0 + 20.0 * draw(), -10.0 + 20.0 * draw(),
                       -10.0 + 20.0 * draw(), -10.0 + 20.0 * draw())
        except GeometryError:
            continue
        if abs(f[TWICE_AREA]) < 1e-6 or min(f[SIDES]) < 1e-6:
            continue
        return f


def random_triangle(rng: random.Random) -> Triangle:
    """The Triangle of the next frame `fuzz` would draw from rng; see _sample."""
    return Triangle._from_frame(_sample(rng))


# Passing triangles' values are folded into the column maxima this many at a time.
_BATCH = 100


def run_fuzz(count: int, seed, tol: float) -> dict:
    rng = random.Random(seed)
    # Looked up once per call, not per triangle; a patched checks._rows is seen.
    rows = checks._rows
    # Each slot's worst |residual| / scale over the triangles that passed,
    # -1.0 while it was skipped in all of them, and how many skipped it.
    worst = [-1.0] * checks.SLOTS
    skips = Counter()
    batch = []
    counterexample = None
    checked = count
    for index in range(count):
        f = _sample(rng)
        values, skipped, _ = rows(f)
        for slot in skipped:
            values[slot] = -1.0
            skips[slot] += 1
        total = sum(values)
        # Every value passes and none is NaN (max() can drop a NaN; a sum keeps
        # it). Without skips, a sum <= tol says so: each value is >= 0 or NaN.
        if total <= tol and not skipped or max(values) <= tol and total == total:
            batch.append(values)
            if len(batch) == _BATCH:
                worst = list(map(max, worst, *batch))
                batch = []
            continue
        # The triangle that fails, merged by a max that keeps a NaN (the one
        # value not equal to itself); the record of its first failing slot
        # is the counterexample.
        worst = [value if not value <= kept else kept for kept, value in zip(worst, values)]
        first = next(slot for slot, value in enumerate(values) if not value <= tol)
        check, item, start, end = checks.OWNERS[first]
        counterexample = {"index": index, "check": check, "item": item,
                          "residual": _worst(values[start:end]),
                          "triangle": _triangle_json(Triangle._from_frame(f))}
        checked = index + 1
        break
    if batch:
        worst = list(map(max, worst, *batch))  # a NaN in worst comes first and stays
    return {
        "schema": SCHEMA,
        "command": "fuzz",
        "count": count,
        "seed": str(seed),
        "tol": tol,
        "checks": checks.entries(worst, skips, checked, tol),
        "counterexample": counterexample,
        "passed": counterexample is None,
    }


def cmd_fuzz(args) -> tuple:
    if args.count <= 0:
        raise InputError(f"--count must be positive, got {args.count}")
    try:
        seed = int(args.seed)
    except ValueError:
        seed = args.seed  # strings are valid seeds
    report = run_fuzz(args.count, seed, args.tol)
    return report, 0 if report["passed"] else 1


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
    for name in ("--L", "--M", "--N"):
        p.add_argument(name, type=float, required=True)
    p.add_argument("--degrees", action="store_true",
                   help="treat L, M, N as degrees and convert to radians")
    p.add_argument("--interpret", choices=tuple(_READINGS),
                   help="cross-check the solution against a triangle")
    p.add_argument("--tol", type=_tolerance, default=TOLERANCE)
    _add_triangle_args(p)


def _figure_args(p: argparse.ArgumentParser) -> None:
    from . import figures

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


def build_parser() -> argparse.ArgumentParser:
    """The full parser tree, every command's subparser under `cuoco`: the
    one that prints help and errors."""
    parser = argparse.ArgumentParser(
        prog="cuoco",
        description="Verify the law of cosines constructively and draw the figures behind it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


class _CommandParser(argparse.ArgumentParser):
    """A parser that never prints: it raises each error for the full tree to print."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _command_parser(name: str) -> tuple:
    """One command's parser, without -h, built once per process, and its
    one-value store and store_true actions by option string. Parsing writes
    only to the namespace it is given, and every default is immutable."""
    parser = _CommandParser(prog=f"cuoco {name}", add_help=False)
    COMMANDS[name][1](parser)
    return parser, {option: action for action in parser._actions for option in action.option_strings
                    if type(action) is argparse._StoreTrueAction
                    or type(action) is argparse._StoreAction and action.nargs is None}


def _read(name: str, argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse parses from argv when each token is an exact
    `--opt=value` (value not "--", which argparse drops), `--opt value`
    (value not starting with "-") or flag, each value converts and is
    among its choices, and no required option is missing; else None."""
    parser, options = _command_parser(name)
    args, seen, tokens = argparse.Namespace(command=name), set(), iter(argv)
    try:
        for token in tokens:
            option, equals, value = token.partition("=")
            action = options.get(option)
            if action is None or action.nargs == 0 and equals:
                return None
            if action.nargs == 0:
                value = action.const
            else:
                value = value if equals else next(tokens, "-")
                if value == "--" or not equals and value.startswith("-"):
                    return None
                parser._check_value(action, value := parser._get_value(action, value))
            setattr(args, action.dest, value)
            seen.add(action)
        for action in parser._actions:
            if action not in seen:
                if action.required:
                    return None
                default = action.default  # as argparse, a str default goes through the type
                vars(args).setdefault(action.dest, parser._get_value(action, default)
                                      if isinstance(default, str) else default)
    except argparse.ArgumentError:
        return None
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace the full tree parses from argv: read by `_read`, else
    parsed by the command's parser if it takes the line whole, else by a
    fresh full tree, which prints help and errors."""
    if argv and argv[0] in COMMANDS:
        args = _read(argv[0], argv[1:])
        if args is not None:
            return args
        try:
            args, extras = _command_parser(argv[0])[0].parse_known_args(
                argv[1:], argparse.Namespace(command=argv[0]))
        except argparse.ArgumentError:
            extras = True
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report, code = COMMANDS[args.command][2](args)
    except (InputError, GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(report, default=_fields), flush=True)  # a closed pipe raises here
    except BrokenPipeError:
        # As Python's `signal` docs advise: point stdout at devnull, so the
        # flush at exit does not raise again, and keep the command's code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
