"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that error_rate is 0 on the code as it stands, that a corrupted reference
value makes ops fail, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "1", "--seed", "3",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_printed_with_units(workload, trace, section):
    proc = bench("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[1:2] == [name] and line.split()[-1] == unit
                   for line in lines), name
    error_rate = [line.split() for line in lines if line.split()[1:2] == ["error_rate"]]
    assert error_rate == [[workload, "error_rate", "0", "ratio"]]


@pytest.fixture
def in_process(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import worker
    import workloads

    return worker, workloads


@pytest.mark.parametrize("workload, reference, corrupt", [
    ("sessions", "COMPLETED_MESSAGES", 9),
    ("forced-grid", "uniform_probability", lambda n: 1.0 / n**4 + 1e-9),
    ("noise-sweep", "dephasing_law", lambda g: (1 - g) ** 0.5),
])
def test_corrupted_reference_fails_ops(in_process, monkeypatch, tmp_path, workload,
                                       reference, corrupt):
    worker, workloads = in_process
    wl = workloads.WORKLOADS[workload]
    job = wl.build(3, "tiny")

    def failures() -> int:
        ctx = workloads.Context(str(tmp_path))
        return worker.run_window(wl, job, ctx, seconds=0).failed

    assert failures() == 0
    monkeypatch.setattr(workloads, reference, corrupt)
    assert failures() > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
