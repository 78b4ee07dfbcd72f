"""Benchmark for the cuoco package.

    python3 bench/run.py --workload {fuzz,cli_requests,cold_start} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else. Load is a closed loop from one process
and one thread: the next operation starts only when the previous one has
returned, and `cold_start` runs one child process at a time. Every output
is checked (see `workloads.check`); a failed operation stays in the latency
samples and counts as failed.

With `--trace 0` the last stdout line carries the end-to-end metrics:
throughput (triangles, requests or processes per second of time spent in
the program), p50 and p90 latency per operation, the share of operations
that succeeded, peak RSS, and set-up time (median of several fresh
set-ups in child processes). With `--trace 1` half of the time runs
untraced and half traced; the last line carries per-function call counts
and self times per operation, import times from `-X importtime`, and the
tracing overhead. Spans are written to `.bench_out/`.

Every reported time is scaled to a fixed machine speed with the reference
work in `calibrate.py`, sampled along the run, because on a shared host the
same code runs up to about twice as slow while neighbours load the core.
In-process work is scaled by a Python loop, `cold_start` and other child
processes by a bare interpreter start. The unscaled wall-clock figures go
to the meta line. The whole benchmark, children included, is pinned to one
core, so the reference samples and the operations they scale run on the
same core.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
SPAN_BUDGET = 100_000  # the traced phase stops starting new ops beyond this
# Per-triangle call counts of the seed's fuzz call graph, reported against
# what the trace measures; random_triangle's own metrics calls come on top.
SEED_CALLS_PER_TRIANGLE = {"decomposition.build": 2, "geometry.metrics": 9}

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_metric(module: str) -> str:
    return f"import.{module.rpartition('.')[2]}_us"


PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in spans.NAMES
       for kind, unit in (("calls_per_op", "count"), ("self_us_per_op", "us"))},
    "figures.render.bytes_per_op": "B",
    "geometry.Point.validations_per_op": "count",
    **{import_metric(module): "us" for module in spans.IMPORT_MODULES},
    "tracing_overhead": "ratio",
}


class MissingSource(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def reference_for(workload: str) -> calibrate.Reference:
    return calibrate.PROCESS if workload == "cold_start" else calibrate.LOOP


def load_cli():
    """Import `cuoco.cli` from this checkout's `src/`, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import cuoco.cli
    except ImportError as exc:
        raise MissingSource(f"cannot import cuoco from {SRC}: {exc}") from None
    if Path(cuoco.cli.__file__).resolve().parent != SRC / "cuoco":
        raise MissingSource(f"imported cuoco from {cuoco.cli.__file__}, not from {SRC}")
    return cuoco.cli


class Bench:
    """One workload's set-up: the op stream, the runner and warm-up."""

    def __init__(self, workload: str, seed: int):
        start = perf_counter()
        if not (SRC / "cuoco" / "cli.py").is_file():
            raise MissingSource(f"no cuoco package under {SRC}")
        self.workload = workload
        self.outdir = OUT / f"{workload}-{seed}"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.cli = None if workload == "cold_start" else load_cli()
        self.recorder: spans.Recorder | None = None
        self.imports: list[dict[str, int]] = []
        self.ops = workloads.ops(workload, seed, str(self.outdir))
        warm = workloads.ops(workload, seed, str(self.outdir), tag="warmup")
        self.warmup_failures = [
            reason for op in itertools.islice(warm, workloads.WARMUP[workload])
            if (reason := self.execute(op, 0)[1]) is not None
        ]
        self.setup_s = perf_counter() - start

    def execute(self, op: workloads.Op, index: int) -> tuple[float, str | None]:
        """Run one op and check it: (seconds inside the program, failure or None)."""
        elapsed, reason = self._run(op, index)
        return elapsed, None if reason is None else f"cuoco {' '.join(op.argv)}: {reason}"

    def _run(self, op: workloads.Op, index: int) -> tuple[float, str | None]:
        if self.workload != "cold_start":
            if self.recorder is not None:
                self.recorder.op = index
            # Looked up per call, so the traced run sees the rebound `main`.
            elapsed, code, stdout = workloads.call_main(self.cli.main, op)
            return elapsed, workloads.check(op, code, stdout)
        if self.recorder is None:
            command = [sys.executable, "-m", "cuoco.cli", *op.argv]
            elapsed, code, stdout, _ = workloads.call_process(command, self.env)
            return elapsed, workloads.check(op, code, stdout)
        dump = self.outdir / "child-trace.json"
        command = [sys.executable, "-X", "importtime", str(HERE / "child.py"), str(dump), *op.argv]
        elapsed, code, stdout, stderr = workloads.call_process(command, self.env)
        self.imports.append(spans.parse_importtime(stderr))
        try:
            with open(dump, encoding="utf-8") as handle:
                self.recorder.merge(json.load(handle), index)
            dump.unlink()
        except (OSError, ValueError) as exc:
            return elapsed, f"traced child left no span dump: {exc}"
        return elapsed, workloads.check(op, code, stdout)

    def measure(self, seconds: float, traced: bool = False) -> dict:
        """Closed loop for `seconds` (at least one op); returns the samples.

        `samples` are wall-clock seconds per op, `scales` the factor that
        brings each to the reference speed (see `calibrate`).
        """
        if traced:
            self.recorder = spans.Recorder()
            if self.cli is not None:
                self.recorder.install()
        samples: list[float] = []
        before: list[int] = []
        failures: list[str] = []
        units = 0
        clock = calibrate.Clock(reference_for(self.workload))
        deadline = perf_counter() + seconds
        try:
            for index, op in enumerate(self.ops):
                before.append(clock.tick())
                elapsed, reason = self.execute(op, index)
                samples.append(elapsed)
                units += op.units
                if reason is not None:
                    failures.append(reason)
                if perf_counter() >= deadline or (traced and len(self.recorder.spans) >= SPAN_BUDGET):
                    break
        finally:
            if traced and self.cli is not None:
                self.recorder.uninstall()
        clock.close()
        return {"samples": samples, "scales": [clock.scale(b) for b in before],
                "reference_slowdown": statistics.median(clock.samples) / clock.reference.nominal_s,
                "failures": failures, "units": units}

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)


def scaled(phase: dict) -> list[float]:
    return [elapsed * scale for elapsed, scale in zip(phase["samples"], phase["scales"])]


def throughput(phase: dict, times: list[float]) -> float:
    return phase["units"] / sum(times)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def wall_clock(phase: dict) -> dict:
    """The unscaled figures and the reference's slowdown, for the meta line."""
    latencies = [s * 1000.0 for s in phase["samples"]]
    return {
        "throughput_per_s": throughput(phase, phase["samples"]),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90(latencies),
        "reference_slowdown_p50": phase["reference_slowdown"],
    }


def end_to_end(phase: dict, peak_rss_kb: int, setup_s: float) -> dict:
    latencies = [s * 1000.0 for s in scaled(phase)]
    return {
        "throughput_per_s": throughput(phase, scaled(phase)),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90(latencies),
        "ok_ratio": 1.0 - len(phase["failures"]) / len(latencies),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "setup_s": setup_s,
    }


def fresh_setups(workload: str, seed: int) -> tuple[list[float], list[str]]:
    """Set the workload up from scratch in child processes, one at a time.

    Each child's set-up time is scaled by reference samples taken around it.
    """
    times, failures = [], []
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        (_, code, stdout, stderr), scale = reference_for(workload).around(
            lambda: workloads.call_process(command))
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
            times.append(result["setup_s"] * scale)
            failures.extend(result["warmup_failures"])
        except (ValueError, IndexError, KeyError, TypeError):
            failures.append(f"set-up child exited {code}: {stderr.strip()[-200:]}")
    return times, failures


def import_times(bench: Bench, traced: dict) -> list[dict[str, float]]:
    """Scaled `-X importtime` of `import cuoco.cli`: the traced children's, or fresh ones."""
    if bench.imports:
        pairs = zip(bench.imports, traced["scales"])
    else:
        command = [sys.executable, "-X", "importtime", "-c", "import cuoco.cli"]
        pairs = [calibrate.PROCESS.around(lambda: spans.parse_importtime(
            workloads.call_process(command, bench.env)[3])) for _ in range(IMPORT_REPEATS)]
    return [{module: us * scale for module, us in sample.items()} for sample, scale in pairs]


def per_layer(bench: Bench, untraced: dict, traced: dict) -> dict:
    recorder = bench.recorder
    ops = len(traced["samples"])
    metrics = {}
    for name, (calls, self_ns) in spans.per_function(recorder.spans, traced["scales"]).items():
        metrics[f"{name}.calls_per_op"] = calls / ops
        metrics[f"{name}.self_us_per_op"] = self_ns / 1000.0 / ops
    metrics["figures.render.bytes_per_op"] = recorder.render_bytes / ops
    metrics["geometry.Point.validations_per_op"] = recorder.validations / ops
    samples = import_times(bench, traced)
    for module in spans.IMPORT_MODULES:
        values = [sample[module] for sample in samples if module in sample]
        metrics[import_metric(module)] = statistics.median(values) if values else 0.0
        if not values:
            recorder.absent.append(f"import {module}")
    metrics["tracing_overhead"] = (throughput(traced, scaled(traced))
                                   / throughput(untraced, scaled(untraced)))
    return metrics


def call_graph_check(recorder: spans.Recorder, ops: int) -> dict:
    """Per-op call counts on fuzz against the seed's call graph (reported, not gated)."""
    if recorder.absent:
        return {"skipped": f"absent: {recorder.absent}"}
    k = workloads.K
    builds = spans.calls_by_op(recorder.spans, "decomposition.build")
    all_metrics = spans.calls_by_op(recorder.spans, "geometry.metrics")
    sampler = spans.calls_by_op(recorder.spans, "geometry.metrics", "cli.random_triangle")
    checked = {
        "decomposition.build": [builds.get(op, 0) for op in range(ops)],
        "geometry.metrics": [all_metrics.get(op, 0) - sampler.get(op, 0) for op in range(ops)],
    }
    return {
        name: {
            "expected_per_op": SEED_CALLS_PER_TRIANGLE[name] * k,
            "measured_per_op": sorted(set(counts)),
            "holds": all(count == SEED_CALLS_PER_TRIANGLE[name] * k for count in counts),
        }
        for name, counts in checked.items()
    } | {"sampler_metrics_calls_per_op": sum(sampler.values()) / ops}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run(args) -> dict:
    bench = Bench(args.workload, args.seed)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "k": workloads.K,
        "load": "closed loop, 1 client, 1 thread",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "setup_in_run_s": bench.setup_s,
        "reference": reference_for(args.workload).name,
    }
    failures = list(bench.warmup_failures)
    try:
        if args.trace:
            untraced = bench.measure(args.seconds / 2.0)
            traced = bench.measure(args.seconds / 2.0, traced=True)
            phases = (untraced, traced)
            metrics = per_layer(bench, untraced, traced)
            meta["wall_clock"] = wall_clock(untraced)
            units = PER_LAYER_UNITS
            meta["traced_ops"] = len(traced["samples"])
            meta["absent"] = bench.recorder.absent
            if args.workload == "fuzz":
                meta["call_graph_check"] = call_graph_check(bench.recorder, len(traced["samples"]))
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            spans.write(trace_path, bench.recorder.dump())
            meta["spans_file"] = str(trace_path.relative_to(ROOT))
        else:
            phase = bench.measure(args.seconds)
            phases = (phase,)
            who = resource.RUSAGE_CHILDREN if args.workload == "cold_start" else resource.RUSAGE_SELF
            peak_rss_kb = resource.getrusage(who).ru_maxrss
            setups, setup_failures = fresh_setups(args.workload, args.seed)
            failures += setup_failures
            metrics = end_to_end(phase, peak_rss_kb, statistics.median(setups) if setups else 0.0)
            meta["wall_clock"] = wall_clock(phase)
            units = END_TO_END_UNITS
            meta["setup_samples_s"] = setups
            count = len(phase["samples"])
            meta["ops"] = count
            meta["p90_tail_samples"] = count - int(0.9 * count)
    finally:
        bench.close()
    meta["git_commit"] = git_commit()  # after reading peak RSS: git is a child too
    for phase in phases:
        failures += phase["failures"]
    attempted = sum(len(phase["samples"]) for phase in phases)
    failed = sum(len(phase["failures"]) for phase in phases)
    meta["failures"] = failures[:10]
    for name, value in metrics.items():
        print(f"{name:<48} {value:>16.6f} {units[name]}")
    print(json.dumps({"meta": meta}))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def setup_only(args) -> dict:
    bench = Bench(args.workload, args.seed)
    bench.close()
    return {"setup_s": bench.setup_s, "warmup_failures": bench.warmup_failures}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="cuoco benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result = setup_only(args) if args.setup_only else run(args)
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
