"""CLI golden outputs: the full stdout of five commands, pinned in cli_golden/.

Every piece of text between numbers (header lines, config keys, column
names, JSON layout) must match exactly; every number must match the pinned
text or agree with it within 1e-11 relative.  The exception is the compare
report's ``relative_deviation`` column and ``max_relative_deviation`` key:
they are gap_numeric/gap_analytic - 1, roundoff-sized values (1e-12 to
5e-9) that a 1e-11 relative move of gap_numeric shifts by up to about 1e-11,
so they agree within 1e-11 absolute.
"""

import math
import re
from pathlib import Path

import pytest

from casimirdiff import cli

GOLDEN = Path(__file__).parent / "cli_golden"

REL_TOL = 1e-11

_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")

# text before a max_relative_deviation value, in the CSV header or the JSON config
_DEVIATION_KEY = re.compile(r'max_relative_deviation"?(?: = |: )$')
# a table whose last column is relative_deviation, in CSV or JSON
_DEVIATION_COLUMN = re.compile(r',relative_deviation\n|"relative_deviation"\n  \]')

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
    deviation_column = _DEVIATION_COLUMN.search(expected) is not None
    for i, (w, g) in enumerate(zip(want, got)):
        if i % 2 == 0:
            if w != g:
                return f"text {g!r}, expected {w!r}"
            continue
        before, after = want[i - 1], want[i + 1]
        # the last cell of a CSV row, or of a JSON row array
        last_cell = (before == "," and after.startswith("\n")) or (
            before.startswith(",\n") and after.lstrip().startswith("]")
        )
        if _DEVIATION_KEY.search(before) or (deviation_column and last_cell):
            tol = {"rel_tol": 0.0, "abs_tol": REL_TOL}
        else:
            tol = {"rel_tol": REL_TOL, "abs_tol": 0.0}
        if w != g and not math.isclose(float(g), float(w), **tol):
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
    # the compare report's deviation fields are compared within 1e-11 absolute
    csv = (
        "# max_relative_deviation = 4.82505123171e-09\n"
        "z_m,gap_numeric_N,gap_analytic_N,relative_deviation\n"
        "3.00000000000e-07,-1.34741317292e-13,-1.34741317292e-13,1.31406057187e-12\n"
    )
    js = (
        '{\n  "columns": [\n    "gap_numeric_Pa",\n    "relative_deviation"\n  ],\n'
        '  "config": {\n    "max_relative_deviation": 4.84563240226e-09\n  },\n'
        '  "rows": [\n    [\n      -0.0014296497790502946,\n      9.55545027426e-15\n'
        '    ]\n  ]\n}\n'
    )
    # roundoff moves of the deviation fields pass
    assert _mismatch(csv, csv.replace("1.31406057187e-12", "1.31480996484e-12")) is None
    assert _mismatch(csv, csv.replace("4.82505123171e-09", "4.82505198171e-09")) is None
    assert _mismatch(js, js.replace("4.84563240226e-09", "4.84563096416e-09")) is None
    assert _mismatch(js, js.replace("9.55545027426e-15", "1.07688407853e-14")) is None
    # a deviation moved by 1e-10 fails, in every place it appears
    assert _mismatch(csv, csv.replace("1.31406057187e-12", "1.01314060572e-10"))
    assert _mismatch(csv, csv.replace("4.82505123171e-09", "4.92505123171e-09"))
    assert _mismatch(js, js.replace("4.84563240226e-09", "4.94563240226e-09"))
    assert _mismatch(js, js.replace("9.55545027426e-15", "1.00009555450e-10"))
    # every other number keeps 1e-11 relative
    assert _mismatch(csv, csv.replace("-1.34741317292e-13,1.3", "-1.34741317392e-13,1.3"))
    assert _mismatch(js, js.replace("-0.0014296497790502946", "-0.0014296497791502946"))
