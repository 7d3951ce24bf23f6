"""Print the bits of a fixed list of CLI commands, the companion of
``golden_bits.py``.

One line per command, run in-process through ``casimirdiff.cli.main``: the
argv, the exit code, and the sha256 of stdout and of stderr.  Two source
trees give the same output bits when they print the same text:

    PYTHONPATH=/path/to/other/src python tools/cli_bits.py > before.txt
    python tools/cli_bits.py | diff before.txt -

The package is imported from ``PYTHONPATH`` when it names one, else from
this checkout's ``src/``.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CANTILEVER = ["--spring-constant", "0.03 N/m", "--resonance-frequency", "1130.9 Hz",
              "--quality-factor", "5889.2", "--bandwidth", "0.3 Hz"]

COMMANDS = [
    ["compare"],
    ["compare", "--probe", "si-dielectric", "--temperature", "77 K"],
    ["compare", "--probe", "vo2-insulator", "--quantity", "pressure"],
    ["compare", "--probe", "vacuum"],
    ["permittivity", "--material", "vo2-insulator"],
    ["permittivity", "--material", "si-doped-low"],
    ["sweep"],
    ["sweep", "--probe", "ideal-metal"],
    ["sweep", "--quantity", "pressure", "--format", "json"],
    ["sweep", "--temperature", "77 K"],
    ["sweep", "--zmin", "100 nm", "--zmax", "3 um", "--points", "81"],
    ["compare", "--spacing", "linear", "--temperature", "77 K"],
    ["sensitivity", *CANTILEVER],
    ["shift", *CANTILEVER, "--z", "150 nm"],
    ["shift", *CANTILEVER, "--z", "150 nm", "--gradient", "1e-5"],
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    if not os.environ.get("PYTHONPATH"):
        sys.path.insert(0, str(ROOT / "src"))
    from casimirdiff import cli

    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        print(shlex.join(argv), code, _sha256(out.getvalue()), _sha256(err.getvalue()))


if __name__ == "__main__":
    main()
