"""The repository's own scripts under ``tools/`` keep working."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_src_lines_counts_every_module():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    header, *rows, total = [line.split() for line in result.stdout.splitlines()]
    assert header == ["module", "raw", "code"]
    modules = sorted(path.name for path in (ROOT / "src" / "casimirdiff").glob("*.py"))
    assert [row[0] for row in rows] == modules
    assert total == ["total"] + [str(sum(int(row[k]) for row in rows)) for k in (1, 2)]
