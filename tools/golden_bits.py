"""Print the bits of every golden case of ``tests/test_golden.py``.

One line per case: its id, ``repr`` of the value, the Matsubara term count
and ``repr`` of the last term's relative size.  The cases are read from that
file's ``CASES``, so they are listed once.  Two checkouts compute the same
bits when they print the same text:

    PYTHONPATH=/path/to/other/src python tools/golden_bits.py > before.txt
    python tools/golden_bits.py | diff before.txt -

The package is imported from ``PYTHONPATH`` when it names one, else from
this checkout's ``src/``, as in ``cli_bits.py``.
"""

import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    if not os.environ.get("PYTHONPATH"):
        sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("test_golden", ROOT / "tests" / "test_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    for name, compute in golden.CASES:
        value, diag = compute()
        print(name, repr(value), diag.n_terms, repr(diag.last_term_rel))


if __name__ == "__main__":
    main()
