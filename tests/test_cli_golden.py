"""CLI golden outputs: the full stdout of five commands, pinned in cli_golden/.

Every piece of text between numbers (header lines, config keys, column
names, JSON layout) must match exactly; every number must match the pinned
text or agree with it within 1e-11 relative.
"""

import math
import re
from pathlib import Path

import pytest

from casimirdiff import cli

GOLDEN = Path(__file__).parent / "cli_golden"

REL_TOL = 1e-11

_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")

_CANTILEVER = [
    "--spring-constant", "0.03 N/m", "--resonance-frequency", "1130.9 Hz",
    "--quality-factor", "5889.2", "--bandwidth", "0.3 Hz", "--temperature", "300 K",
]

CASES = {
    "sweep_force.csv": ["sweep", "--points", "3"],
    "sweep_pressure.json": [
        "sweep", "--points", "3", "--quantity", "pressure", "--format", "json",
    ],
    "compare_force.csv": ["compare", "--points", "2"],
    "compare_pressure.json": [
        "compare", "--points", "2", "--quantity", "pressure", "--format", "json",
    ],
    "shift.txt": ["shift", *_CANTILEVER, "--z", "150 nm"],
}


def _mismatch(expected: str, actual: str) -> str | None:
    """The first difference between two outputs, or None when they agree."""
    want, got = _NUMBER.split(expected), _NUMBER.split(actual)
    if len(want) != len(got):
        return f"{len(got)} text/number pieces, expected {len(want)}"
    for i, (w, g) in enumerate(zip(want, got)):
        if i % 2 == 0:
            if w != g:
                return f"text {g!r}, expected {w!r}"
        elif w != g and not math.isclose(float(g), float(w), rel_tol=REL_TOL, abs_tol=0.0):
            return f"number {g}, expected {w}"
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden_output(name, capsys):
    assert cli.main(CASES[name]) == 0
    actual = capsys.readouterr().out
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert _mismatch(expected, actual) is None, _mismatch(expected, actual)


def test_golden_comparison_is_strict():
    text = "# points = 3\nz_m,force_N\n1.00000000000e-07,-7.81468525576e-12\n"
    assert _mismatch(text, text) is None
    assert _mismatch(text, text.replace("-7.81468525576e-12", "-7.81468525577e-12")) is None
    assert _mismatch(text, text.replace("-7.81468525576e-12", "-7.81468525676e-12"))
    assert _mismatch(text, text.replace("force_N", "force_n"))
    assert _mismatch(text, text.replace("points = 3", "points = 4"))
    assert _mismatch(text, text + "extra\n")
