"""Set-up probe: a fresh interpreter gets one workload ready, then says so.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

It imports casimirdiff, builds the workload's materials (and, for
vo2-tabulated, loads its optical table from ``workdir``), and prints
``ready``.  ``run.py`` times it from process start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (needs the src path)

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
workload.setup()
print("ready", flush=True)
