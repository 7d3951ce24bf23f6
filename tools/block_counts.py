"""Print the Matsubara blocks and rows of a fixed list of runs.

One line per case: its id, the blocks of rows l >= 1 the row chooser
filled (of at most 320 rows), the rows l >= 1 evaluated, the rows l >= 1
its sums needed (``-`` for a case that raises; compare its rows with
l_max_cap = 20000), the node evaluations of those rows (the sum of rows x
order over the blocks evaluated), the blocks evaluated per momentum band,
at 160/80/32 nodes, and the cells (rows x order) of the largest block
evaluated, which _MAX_CELLS bounds.  The row evaluator cuts each chosen
block by band into blocks of at most _MAX_CELLS cells: 64 rows at 160
nodes, 128 at 80 and 320 at 32.  The counts follow the kernel alone, with
no timing noise, so two checkouts can be compared case by case:

    PYTHONPATH=/path/to/other/src python tools/block_counts.py > before.txt
    python tools/block_counts.py | diff before.txt -

The cases, gold over si-doped-n1/si-doped-low in model a unless named:

* ``force-300K`` ... ``pressure-77K-3um``: the 41-point force and pressure
  curves of ``test_curve_evaluates_few_terms_past_the_stop``, on a log grid
  of 100-300 nm or 100 nm - 3 um;
* ``stencil-77K``: the 160 single sums of the 40 five-point stencils at
  100-400 nm and 77 K of ``test_single_sums_take_few_tail_blocks``;
* ``vo2-tabulated-340K``: an 11-point 100-300 nm force curve of the golden
  tabulated probe over vo2-metal/vo2-insulator;
* ``force-0.5K`` and ``pressure-0.5K``: 41-point 100-300 nm curves whose
  100 nm sum exceeds the default l_max_cap.

The package is imported from ``PYTHONPATH`` when it names one, else from
this checkout's ``src/``, as in ``golden_bits.py``.
"""

import importlib.util
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
R_SPHERE = 100e-6


def _log_grid(z_min: float, z_max: float, n: int) -> tuple[float, ...]:
    return tuple(np.logspace(math.log10(z_min), math.log10(z_max), n))


def _cases(cd, tabulated):
    """[(id, run returning the rows l >= 1 its sums needed)]."""
    si = tuple(cd.build_material(name) for name in ("gold-drude", "si-doped-n1", "si-doped-low"))
    vo2 = (tabulated, cd.build_material("vo2-metal"), cd.build_material("vo2-insulator"))

    def curve(quantity, T, zs, mats=si):
        def run():
            grid = cd.MatsubaraGrid(T=T)
            if quantity == "force":
                result = cd.difference_force_curve(*mats, R_SPHERE, zs, grid, low_freq_model="a")
            else:
                result = cd.difference_pressure_curve(*mats, zs, grid, low_freq_model="a")
            return sum(n - 1 for n in result.metadata["l_terms_per_z"])
        return run

    def stencils():
        grid, needed = cd.MatsubaraGrid(T=77.0), []

        def force(z):
            value, diag = cd.difference_force(*si, R_SPHERE, z, grid, low_freq_model="a",
                                              with_diagnostics=True)
            needed.append(diag.n_terms - 1)
            return value

        for z in np.linspace(100e-9, 400e-9, 40):
            cd.five_point_gradient(force, float(z))
        return sum(needed)

    near, far = _log_grid(100e-9, 300e-9, 41), _log_grid(100e-9, 3e-6, 41)
    return [
        ("force-300K", curve("force", 300.0, near)),
        ("pressure-300K", curve("pressure", 300.0, near)),
        ("force-77K", curve("force", 77.0, near)),
        ("pressure-77K", curve("pressure", 77.0, near)),
        ("force-300K-3um", curve("force", 300.0, far)),
        ("pressure-77K-3um", curve("pressure", 77.0, far)),
        ("stencil-77K", stencils),
        ("vo2-tabulated-340K", curve("force", 340.0, _log_grid(100e-9, 300e-9, 11), vo2)),
        ("force-0.5K", curve("force", 0.5, near)),
        ("pressure-0.5K", curve("pressure", 0.5, near)),
    ]


def main() -> None:
    if not os.environ.get("PYTHONPATH"):
        sys.path.insert(0, str(ROOT / "src"))
    import casimirdiff as cd
    from casimirdiff import lifshitz

    spec = importlib.util.spec_from_file_location("test_golden", ROOT / "tests" / "test_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)

    chosen, evaluated = [], []
    row_terms, block_terms = lifshitz._row_terms, lifshitz._block_terms

    def choosing(quantity, models, z, xi, *rest):
        chosen.append(len(xi))
        return row_terms(quantity, models, z, xi, *rest)

    def evaluating(quantity, models, z, xi, block_eps, nodes, window):
        if xi[0] > 0.0:  # a block of rows l >= 1, not the l = 0 row
            evaluated.append((len(xi), nodes))
        return block_terms(quantity, models, z, xi, block_eps, nodes, window)

    lifshitz._row_terms, lifshitz._block_terms = choosing, evaluating
    orders = lifshitz._band_orders(lifshitz.DEFAULT_NODES)
    print("case blocks rows needed node_evals blocks_" + "/".join(map(str, orders)),
          "max_cells")
    for name, run in _cases(cd, golden.TABULATED):
        chosen.clear()
        evaluated.clear()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # z/R beyond 0.01 at 3 um
                needed = run()
        except cd.TruncationError:
            needed = "-"
        bands = "/".join(str(sum(n == order for _, n in evaluated)) for order in orders)
        cells = [r * n for r, n in evaluated]
        print(name, len(chosen), sum(chosen), needed, sum(cells), bands, max(cells))


if __name__ == "__main__":
    main()
