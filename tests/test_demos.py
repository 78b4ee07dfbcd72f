"""The demos run against the public API as it is now."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# draw_figures.py is left out: it writes into the tracked demos/output/,
# whose bytes tests/test_figures.py pins in-process.
@pytest.mark.parametrize("demo", [
    "triangle_basics.py",
    "equal_area_chain.py",
    "three_readings.py",
    "circles_tour.py",
])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
