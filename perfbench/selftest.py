"""Tests of the benchmark itself (about a minute; not part of the tier-1 suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_run_prints_every_metric_with_unit(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    report = lines[:-1]
    expected = [(m["name"], m["unit"]) for m in spec] + [("failed_frac", "fraction")]
    if not trace:
        expected += [("request_s.p50", "s"), ("request_s.p90", "s"), ("points_per_s", "1/s")]
    for metric, unit in expected:
        assert any(metric in line and unit in line for line in report), metric


def _records(workload, count):
    records = []
    for i in range(count):
        inputs = workload.inputs(i)
        records.append(run.Record(i, inputs, 0.0, workload.execute(inputs), None, False))
    return records


def _perturb_si(records):
    records[0].outcome.values[5] *= 1.001


def _perturb_vo2(records):
    records[0].outcome.values[3] *= 1.01


def _perturb_cryo(records):
    records[0].outcome.extra["pressure"] *= 1.01


@pytest.mark.parametrize(
    "name, count, perturb",
    [("si-sweep", 2, _perturb_si), ("vo2-tabulated", 1, _perturb_vo2), ("cryo-shift", 1, _perturb_cryo)],
)
def test_perturbed_value_counts_as_failure(tmp_path, name, count, perturb):
    workload = workloads.WORKLOADS[name](5, tmp_path)
    workload.prepare()
    workload.setup()
    records = _records(workload, count)
    assert workload.check(records) == {}
    perturb(records)
    assert 0 in workload.check(records)


def test_raising_request_is_recorded_as_failed():
    class Broken:
        def inputs(self, i):
            return {"i": i}

        def execute(self, inputs):
            raise ValueError("boom")

    records, _, _ = run.closed_loop(Broken(), 0.01, 0)
    assert records and all(r.outcome is None and "boom" in r.error for r in records)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "si-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
