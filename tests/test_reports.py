"""Full CLI reports, byte for byte, against text kept in tests/reports/.

The other CLI tests spot-check fields; these catch a reordered key, a
renamed check or a residual divided by a different scale.
"""

from pathlib import Path

import pytest

from cuoco.cli import main

REPORTS = Path(__file__).resolve().parent / "reports"


@pytest.mark.parametrize("argv, name", [
    (("verify", "--sides", "2,3,4"), "verify_sides_2_3_4.json"),
    (("verify", "--points", "3,4,0,0,3,0"), "verify_points_3_4_0_0_3_0.json"),
    (("fuzz", "--count", "20", "--seed", "7"), "fuzz_count_20_seed_7.json"),
])
def test_report_matches_pinned_text(capsys, argv, name):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == (REPORTS / name).read_text(encoding="utf-8")
