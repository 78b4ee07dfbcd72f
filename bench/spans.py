"""Span recorder for the traced benchmark run.

Each tracked public function of the `cuoco` package is rebound, in every
`cuoco.*` module namespace that holds it, to a wrapper that records a span
(function, start, end, parent span, op id). Rebinding by identity in every
namespace catches cross-module calls made through names imported with
`from .x import y`. `Point.__post_init__` is only counted, since it runs a
few hundred times per triangle. Spans stay in memory and are summarised and
written out when the run ends. A tracked function that the package no
longer has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

TRACKED = {
    "geometry": ("metrics", "classify", "foot_of_altitude", "triangle_from_sides"),
    "cosine_law": ("verify_cosine_identity", "euclid_defect"),
    "decomposition": (
        "build",
        "verify_pairs",
        "similarity_check",
        "derive_cosine_theorem",
        "shoelace",
        "panel_area_trig",
    ),
    "three_sum": ("interpret_squares", "interpret_sides", "interpret_angles"),
    "circles": (
        "incircle",
        "circumcircle",
        "vertex_splits",
        "tangent_lengths",
        "closed_form_splits",
    ),
    "figures": ("render",),
    "cli": ("main", "build_parser", "random_triangle"),
}

NAMES = tuple(f"{module}.{fn}" for module, fns in TRACKED.items() for fn in fns)

# Modules whose cumulative import time the cold-start trace reports.
IMPORT_MODULES = ("cuoco",) + tuple(f"cuoco.{module}" for module in (
    "geometry", "cosine_law", "decomposition", "three_sum", "circles", "figures", "cli",
))


class Recorder:
    """Collects spans while installed; `op` is set by the caller per operation."""

    def __init__(self) -> None:
        self.spans: list = []  # (name index, start ns, end ns, parent index, op)
        self.stack: list[int] = []
        self.op = 0
        self.validations = 0
        self.render_bytes = 0
        self.absent: list[str] = []
        self._undo: list = []

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "cuoco" or name.startswith("cuoco."))]
        for index, qualified in enumerate(NAMES):
            module_name, fn_name = qualified.split(".")
            original = getattr(sys.modules.get(f"cuoco.{module_name}"), fn_name, None)
            if not callable(original):
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(index, original, sized=qualified == "figures.render")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        point = getattr(sys.modules.get("cuoco.geometry"), "Point", None)
        post_init = getattr(point, "__post_init__", None)
        if post_init is None:
            self.absent.append("geometry.Point.__post_init__")
        else:
            recorder = self

            @functools.wraps(post_init)
            def counted(obj):
                recorder.validations += 1
                return post_init(obj)

            self._undo.append((point, "__post_init__", post_init))
            point.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, index: int, fn, sized: bool):
        spans = self.spans
        stack = self.stack
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[slot] = (index, start, end, parent, recorder.op)
            if sized:
                recorder.render_bytes += len(result.encode("utf-8"))
            return result

        return traced

    def dump(self) -> dict:
        return {
            "names": list(NAMES),
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "validations": self.validations,
            "render_bytes": self.render_bytes,
            "absent": self.absent,
        }

    def merge(self, dumped: dict, op: int) -> None:
        """Append another recorder's dump (a traced child process) as op `op`."""
        offset = len(self.spans)
        for index, start, end, parent, _ in dumped["spans"]:
            self.spans.append((index, start, end, parent + offset if parent >= 0 else -1, op))
        self.validations += dumped["validations"]
        self.render_bytes += dumped["render_bytes"]
        for name in dumped["absent"]:
            if name not in self.absent:
                self.absent.append(name)


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns).

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child_ns[i] for i, (_, start, end, _, _) in enumerate(spans)]


def per_function(spans, scales=None) -> dict[str, tuple[int, float]]:
    """Function name -> (calls, total self ns) over all spans.

    With `scales`, each span's self time is multiplied by `scales[op]`.
    """
    calls = [0] * len(NAMES)
    self_ns = [0.0] * len(NAMES)
    for (index, _, _, _, op), own in zip(spans, self_times(spans)):
        calls[index] += 1
        self_ns[index] += own if scales is None else own * scales[op]
    return {name: (calls[i], self_ns[i]) for i, name in enumerate(NAMES)}


def calls_by_op(spans, name: str, parent_name: str | None = None) -> dict[int, int]:
    """op -> number of calls of `name`, optionally only those directly under `parent_name`."""
    index = NAMES.index(name)
    parent_index = NAMES.index(parent_name) if parent_name else None
    counts: dict[int, int] = {}
    for fn, _, _, parent, op in spans:
        if fn != index:
            continue
        if parent_index is not None and (parent < 0 or spans[parent][0] != parent_index):
            continue
        counts[op] = counts.get(op, 0) + 1
    return counts


def parse_importtime(stderr: str) -> dict[str, int]:
    """Cumulative import time in µs for each `cuoco` module in `-X importtime` output."""
    found: dict[str, int] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in IMPORT_MODULES:
            try:
                found[name] = int(parts[1])
            except ValueError:
                continue
    return found


def write(path, dumped: dict) -> None:
    """Write a dump as JSON, one span per line."""
    with open(path, "w", encoding="utf-8") as handle:
        header = {key: value for key, value in dumped.items() if key != "spans"}
        handle.write(json.dumps(header) + "\n")
        for span in dumped["spans"]:
            handle.write(json.dumps(span) + "\n")
