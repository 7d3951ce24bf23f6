"""Layer probes measured once per traced run, the same for every workload.

Each probe times one layer boundary on a fixed input and reports a median of
repeats, warm: one Matsubara sum, one Fresnel call, the process pool, the
package import and the ``sweep`` / ``compare`` commands as subprocesses, and
the in-process ``cli.main`` overhead over its library curves.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from casimirdiff import cli, lifshitz, materials


def _median_time(fn, repeats: int) -> float:
    fn()  # warm
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _si_materials():
    return (
        materials.build_material("gold-drude"),
        materials.build_material("si-doped-n1"),
        materials.build_material("si-doped-low"),
    )


def sum_ms() -> float:
    """One difference_force at 100 nm, 300 K (gold over si-doped-n1/-low, model a)."""
    probe, high, low = _si_materials()
    grid = lifshitz.MatsubaraGrid(T=300.0)
    return 1e3 * _median_time(
        lambda: lifshitz.difference_force(probe, high, low, 100e-6, 100e-9, grid, low_freq_model="a"),
        repeats=15,
    )


def fresnel_us() -> float:
    """reflection_coefficients per call, over a spread of eps, xi and k_perp."""
    calls = [
        (eps, xi, kp)
        for eps in (1.5, 11.66, 1e4)
        for xi in (1e13, 1e15, 1e16)
        for kp in (1e5, 1e7, 1e8)
    ] * 40

    def run():
        for eps, xi, kp in calls:
            lifshitz.reflection_coefficients(eps, xi, kp)

    return 1e6 * _median_time(run, repeats=7) / len(calls)


def pool_speedup() -> float:
    """One default si-sweep force curve at workers=1 over workers=2 (pool start-up included)."""
    probe, high, low = _si_materials()
    grid = lifshitz.MatsubaraGrid(T=300.0)
    zs = tuple(np.logspace(math.log10(100e-9), math.log10(300e-9), 41))
    ratios = []
    for _ in range(3):
        times = {}
        for workers in (1, 2):
            t0 = perf_counter()
            lifshitz.difference_force_curve(
                probe, high, low, 100e-6, zs, grid, low_freq_model="a", workers=workers
            )
            times[workers] = perf_counter() - t0
        ratios.append(times[1] / times[2])
    return statistics.median(ratios)


_IMPORT_TIMER = (
    "import time; t0 = time.perf_counter(); import casimirdiff; "
    "print(time.perf_counter() - t0)"
)


def import_s(env, cwd, repeats: int = 5) -> float:
    """``import casimirdiff`` in a fresh interpreter, timed inside it."""
    times = []
    for _ in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER], env=env, cwd=cwd, check=True,
            capture_output=True, text=True,
        ).stdout
        times.append(float(out))
    return statistics.median(times[1:])


def command_s(command: str, out_path, env, cwd, repeats: int = 3) -> float:
    """``casimirdiff <command>`` with the default config, as a subprocess."""
    args = [sys.executable, "-m", "casimirdiff.cli", command, "--out", str(out_path)]
    times = []
    for _ in range(repeats + 1):
        t0 = perf_counter()
        subprocess.run(args, env=env, cwd=cwd, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times[1:])  # the first run is a warm-up


def cli_overhead_s(tracer, out_path, repeats: int = 3) -> float:
    """In-process ``cli.main(["compare", ...])`` minus the library curves it computes."""
    overheads = []
    for _ in range(repeats + 1):
        first = len(tracer.spans)
        code = cli.main(["compare", "--out", str(out_path)])
        if code != 0:
            raise RuntimeError(f"casimirdiff compare exited {code}")
        spans = tracer.spans[first:]
        total = sum(s.duration for s in spans if s.name == "cli.main")
        curves = sum(s.duration for s in spans if s.name.endswith("_curve"))
        overheads.append(total - curves)
    return statistics.median(overheads[1:])
