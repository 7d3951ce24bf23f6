"""The repository's own scripts under ``tools/`` keep working."""

import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from casimirdiff import lifshitz

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


def _golden_bits(pythonpath):
    """golden_bits.py run with ``pythonpath`` as PYTHONPATH, or without one."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = str(pythonpath)
    return subprocess.run([sys.executable, str(ROOT / "tools" / "golden_bits.py")],
                          capture_output=True, text=True, check=False, env=env)


def test_golden_bits_prints_one_line_per_case(tmp_path):
    from test_golden import CASES

    result = _golden_bits(None)
    assert result.returncode == 0, result.stderr
    lines = [line.split() for line in result.stdout.splitlines()]
    assert [line[0] for line in lines] == [name for name, _ in CASES]
    for name, value, n_terms, last_term_rel in lines:
        assert float(value) < 0.0 and int(n_terms) >= 2 and float(last_term_rel) >= 0.0, name
    # the package comes from PYTHONPATH when it names one, as in cli_bits.py
    assert _golden_bits(ROOT / "src").stdout == result.stdout
    stub = tmp_path / "casimirdiff"
    stub.mkdir()
    (stub / "__init__.py").write_text("raise ImportError('the package on PYTHONPATH')\n")
    result = _golden_bits(tmp_path)
    assert result.returncode != 0 and "the package on PYTHONPATH" in result.stderr


def test_cli_bits_prints_one_line_per_command():
    spec = importlib.util.spec_from_file_location("cli_bits", ROOT / "tools" / "cli_bits.py")
    cli_bits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_bits)
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_bits.py")],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    lines = [shlex.split(line) for line in result.stdout.splitlines()]
    assert [line[:-3] for line in lines] == cli_bits.COMMANDS
    for *argv, code, out, err in lines:
        # only the non-reflecting probe is refused
        assert code == ("1" if argv == ["compare", "--probe", "vacuum"] else "0"), argv
        assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in (out, err)), argv


def test_block_counts_prints_one_line_per_case():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "block_counts.py")],
                            capture_output=True, text=True, check=False, env=env)
    assert result.returncode == 0, result.stderr
    header, *lines = [line.split() for line in result.stdout.splitlines()]
    assert header == ["case", "blocks", "rows", "needed", "node_evals", "blocks_160/80/32",
                      "max_cells"]
    assert [line[0] for line in lines] == [
        "force-300K", "pressure-300K", "force-77K", "pressure-77K", "force-300K-3um",
        "pressure-77K-3um", "stencil-77K", "vo2-tabulated-340K", "force-0.5K", "pressure-0.5K"]
    for name, blocks, rows, needed, node_evals, bands, max_cells in lines:
        assert 0 < int(blocks) <= int(rows), name
        # each chosen block is cut into at least one block per band it holds
        assert sum(map(int, bands.split("/"))) >= int(blocks), name
        assert 32 * int(rows) <= int(node_evals) <= 160 * int(rows), name
        assert 32 <= int(max_cells) <= lifshitz._MAX_CELLS, name
        # the 0.5 K curves raise at the cap of 20000 terms
        if name.endswith("0.5K"):
            assert needed == "-" and int(rows) > 20000, name
        else:
            assert 0 < int(needed) <= int(rows), name
