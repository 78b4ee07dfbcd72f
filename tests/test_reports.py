"""Full CLI reports, byte for byte, against text kept in tests/reports/.

The other CLI tests spot-check fields; these catch a reordered key, a
renamed check or a residual divided by a different scale.
"""

import hashlib
from pathlib import Path

import pytest

from cuoco.cli import main

REPORTS = Path(__file__).resolve().parent / "reports"


# (argv, the file in tests/reports/ that holds its stdout)
PINNED_REPORTS = [
    (("verify", "--sides", "2,3,4"), "verify_sides_2_3_4.json"),
    (("verify", "--points", "3,4,0,0,3,0"), "verify_points_3_4_0_0_3_0.json"),
    (("fuzz", "--count", "20", "--seed", "7"), "fuzz_count_20_seed_7.json"),
    # Right angles: several of these values are -0.0, whose sign depends
    # on which way round each side vector is subtracted.
    (("verify", "--sides", "5,3,4"), "verify_sides_5_3_4.json"),
    (("verify", "--sides", "3,4,5"), "verify_sides_3_4_5.json"),
    (("solve", "--L", "9", "--M", "16", "--N", "25", "--interpret", "squares", "--sides", "3,4,5"),
     "solve_squares_9_16_25_sides_3_4_5.json"),
    (("solve", "--L", "1", "--M", "1", "--N", "1", "--interpret", "angles", "--sides", "5,3,4"),
     "solve_angles_1_1_1_sides_5_3_4.json"),
    # Float coordinates; the second triangle is given clockwise (stored with
    # B and C swapped) and is obtuse at A.
    (("verify", "--points=0.3,0.1,1.7,0.2,0.4,2.9"), "verify_points_acute_float.json"),
    (("verify", "--points=0.5,2.25,3.5,-0.375,-1.75,0.125"), "verify_points_obtuse_clockwise.json"),
    (("solve", "--L", "2.5", "--M", "3.25", "--N", "4.75", "--interpret", "sides",
      "--points=0.5,2.25,3.5,-0.375,-1.75,0.125"),
     "solve_sides_2.5_3.25_4.75_points_obtuse_clockwise.json"),
    (("solve", "--L", "1", "--M", "1", "--N", "1", "--interpret", "angles",
      "--points=0.3,0.1,1.7,0.2,0.4,2.9"),
     "solve_angles_1_1_1_points_acute_float.json"),
]


@pytest.mark.parametrize("argv, name", PINNED_REPORTS)
def test_report_matches_pinned_text(capsys, argv, name):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == (REPORTS / name).read_text(encoding="utf-8")


# SHA-256 of the stdout of `fuzz --count 100 --seed s` for s = 0..19, concatenated.
FUZZ_SEEDS_0_TO_19_DIGEST = "63934b663bc99cfcdb12feb5984322b359698eeff6e5cda95f85e331c9d1cb89"


def test_fuzz_reports_match_pinned_digest(capsys):
    digest = hashlib.sha256()
    for seed in range(20):
        assert main(["fuzz", "--count", "100", "--seed", str(seed)]) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == FUZZ_SEEDS_0_TO_19_DIGEST
