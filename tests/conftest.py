from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, strategies as st

from cuoco import checks, circles, cli, cosine_law, decomposition, figures, geometry, three_sum
from cuoco.cli import random_triangle
from cuoco.geometry import Point, Triangle, cross, _worst

SAMPLE_SEED = 42

# Fraction vertices: every value built without a square root stays exact.
RATIONAL = Triangle(Point(Fraction(1, 3), Fraction(-2, 7)), Point(Fraction(9, 2), Fraction(1, 5)),
                    Point(Fraction(-3, 4), Fraction(11, 3)))


@pytest.fixture(scope="session")
def fuzz_triangles():
    """A healthy mix of acute, right-ish and obtuse random triangles."""
    rng = random.Random(SAMPLE_SEED)
    return [random_triangle(rng) for _ in range(1500)]


@pytest.fixture
def frame_calls(monkeypatch):
    """The vertex coordinates of each `_frame` call from here on, wherever
    a cuoco module holds the function."""
    calls = []
    exact = geometry._frame

    def counting(*coords):
        calls.append(coords)
        return exact(*coords)

    for module in (geometry, checks, circles, cosine_law, decomposition, figures, three_sum, cli):
        if vars(module).get("_frame") is exact:
            monkeypatch.setattr(module, "_frame", counting)
    return calls


@st.composite
def float_triangles(draw, span: float = 50.0):
    coords = [
        draw(st.floats(-span, span, allow_nan=False, allow_infinity=False))
        for _ in range(6)
    ]
    a = Point(coords[0], coords[1])
    b = Point(coords[2], coords[3])
    c = Point(coords[4], coords[5])
    doubled = cross(b - a, c - a)
    # Skip thin triangles: 1e-9 relative checks are meaningless at worse
    # conditioning, and the library itself rejects exact collinearity.
    assume(abs(doubled) > 1e-3)
    sides = (
        abs(complex(b.x - c.x, b.y - c.y)),
        abs(complex(c.x - a.x, c.y - a.y)),
        abs(complex(a.x - b.x, a.y - b.y)),
    )
    assume(min(sides) > 1e-2)
    return Triangle(A=a, B=b, C=c)


@st.composite
def integer_triangles(draw, bound: int = 100):
    coords = [draw(st.integers(-bound, bound)) for _ in range(6)]
    a = Point(coords[0], coords[1])
    b = Point(coords[2], coords[3])
    c = Point(coords[4], coords[5])
    assume(cross(b - a, c - a) != 0)
    return Triangle(A=a, B=b, C=c)


def circumcentre_budget(center, radius) -> float:
    """How far a computed circumcentre's distances to the vertices may
    spread: twice the centre's own error, plus 6 u R for the three norms
    (u = 2**-53). The centre is A plus an offset found in A's frame; the
    sum rounds each coordinate by at most u times its size, so by
    sqrt(2) u max|coordinate| in all, and the offset is allowed 8 u R."""
    u = 2.0 ** -53
    return 2 * (2 ** 0.5 * u * max(abs(center.x), abs(center.y)) + 8 * u * radius) + 6 * u * radius


def eliminate(L, M, N):
    """Reference solver for x+y=L, x+z=M, y+z=N: straight Gaussian
    elimination on the 3x3 matrix, independent of the closed form."""
    rows = [
        [1.0, 1.0, 0.0, L],
        [1.0, 0.0, 1.0, M],
        [0.0, 1.0, 1.0, N],
    ]
    n = 3
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0.0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return tuple(rows[i][3] / rows[i][i] for i in range(n))


@st.composite
def side_triples(draw):
    """Sides in [0.5, 100] that beat the triangle inequality by a margin of
    1e-6 times the longest. c is drawn strictly inside that margin of
    |a - b| and a + b (a margin at least the drawn triple's), so the assume
    drops only a triple whose float sums round onto the boundary."""
    a = draw(st.floats(0.5, 100.0))
    b = draw(st.floats(0.5, 100.0))
    margin = 1e-6 * max(a, b, min(a + b, 100.0))
    c = draw(st.floats(max(abs(a - b) + margin, 0.5), min(a + b - margin, 100.0),
                       exclude_min=True, exclude_max=True))
    margin = 1e-6 * max(a, b, c)
    assume(a + b > c + margin and a + c > b + margin and b + c > a + margin)
    return a, b, c


def records(f) -> list:
    """(check, item, value) of each record the slots of frame f make,
    skipped ones left out: `checks._rows` regrouped record by record by
    `checks.RECORDS`, a record of several slots taking the largest of their
    |residual| / scale values (a NaN kept)."""
    values, skipped = checks._rows(f)[:2]
    found, start = [], 0
    for check, item, count in checks.RECORDS:
        if start not in skipped:
            found.append((check, item, _worst(values[start:start + count])))
        start += count
    return found


def tree_copy(tmp_path, *edits):
    """A copy of the cuoco package under tmp_path with each (file, old, new)
    edit made, each old text found exactly once; returns the copy's root."""
    package = Path(geometry.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "cuoco", ignore=shutil.ignore_patterns("__pycache__"))
    for name, old, new in edits:
        path = tmp_path / "cuoco" / name
        text = path.read_text()
        assert text.count(old) == 1, (name, old)
        path.write_text(text.replace(old, new))
    return tmp_path


def run_script(root, script: str) -> subprocess.CompletedProcess:
    """script in a fresh interpreter that imports cuoco from root."""
    return subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(root)),
                          capture_output=True, text=True)
