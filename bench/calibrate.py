"""Reference work that scales measured times to one fixed machine speed.

The benchmark runs on a few cores of a shared host. When other tenants load
the same physical cores, the same code runs up to about twice as slow for
seconds to minutes at a time, in CPU time as well as wall time, so a plain
median over a run moves with the neighbours' load, not with the program.
The benchmark therefore times a fixed piece of reference work, which is the
benchmark's own and never changes with the program, every `interval_s` of
the run, and reports each measured time multiplied by the reference's
`nominal_s` over its time around the measurement: the time the operation
would take on a core where the reference takes `nominal_s`. Each
`nominal_s` is the reference's time on an uncontended core of the machine
the benchmark was tuned on (an "Intel(R) Xeon(R) Processor" vCPU, Python
3.11), so scaled times read close to that machine's uncontended times.

Two references, because contention slows in-process Python and process
start-up by different factors:

- `LOOP`, for work inside one interpreter: builds small frozen dataclasses
  with a validating `__post_init__`, does float arithmetic and formats
  numbers into strings, as the program does.
- `PROCESS`, for work that starts interpreters: one bare `python -c pass`.
"""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite coordinate")


def _python_loop() -> float:
    points = [_Point((i * 7919) % 1013 / 7.0, math.sqrt(i + 1.0)) for i in range(1200)]
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += math.hypot(b.x - a.x, b.y - a.y) + math.atan2(b.y - a.y, b.x - a.x)
    text = {f"k{i}": round(total / (i + 1), 6) for i in range(240)}
    return total + len(str(text))


def _bare_interpreter() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


@dataclass(frozen=True)
class Reference:
    name: str
    work: Callable[[], object]
    nominal_s: float
    # A sample is the mean of this many runs: the neighbours' load changes
    # within an operation, and the mean follows its average better than the
    # fastest run does.
    repeats: int
    interval_s: float  # least time between two samples along a run

    def sample(self) -> float:
        """Seconds the reference work takes now."""
        start = perf_counter()
        for _ in range(self.repeats):
            self.work()
        return (perf_counter() - start) / self.repeats

    def around(self, fn):
        """Call `fn` between two samples: (its result, the scale they give)."""
        before = self.sample()
        result = fn()
        return result, self.nominal_s / ((before + self.sample()) / 2.0)


LOOP = Reference("python_loop", _python_loop,
                 nominal_s=0.0016, repeats=3, interval_s=0.05)
PROCESS = Reference("bare_interpreter", _bare_interpreter,
                    nominal_s=0.045, repeats=2, interval_s=0.25)


class Clock:
    """Reference samples taken along a run, and the scale they give each interval.

    Call `tick` before every operation and `close` after the last one. An
    operation is scaled by the mean of the samples just before and just
    after it.
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.samples: list[float] = []
        self._last = -math.inf

    def tick(self) -> int:
        """Sample if `interval_s` has passed; the index of the sample before the next op."""
        if perf_counter() - self._last >= self.reference.interval_s:
            self.samples.append(self.reference.sample())
            self._last = perf_counter()
        return len(self.samples) - 1

    def close(self) -> None:
        self.samples.append(self.reference.sample())
        self._last = perf_counter()

    def scale(self, before: int) -> float:
        """Factor for an op that ran after sample `before` and before the next one."""
        after = min(before + 1, len(self.samples) - 1)
        return self.reference.nominal_s / ((self.samples[before] + self.samples[after]) / 2.0)
