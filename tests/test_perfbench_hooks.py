"""The benchmark's hooks into the package still resolve.

`perfbench/workloads.py` imports package names and `perfbench/tracer.py`
wraps them by name. Deleting or renaming one of them breaks the benchmark,
but its own smoke test runs whole workloads and sits outside this suite;
loading both files by path here turns that into a fast failure, and so
does running each workload's tiny job through its own op and check.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from bcrsp.core import StateVector
from bcrsp.session import Session

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_workloads_import(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    assert set(workloads.WORKLOADS) == {"sessions", "forced-grid", "noise-sweep"}


def test_tracer_installs_and_restores(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    spanned = [
        (importlib.import_module(f"bcrsp.{layer}"), fname) for layer, fname in tracer.FUNCTIONS
    ]
    spanned += [(Session, "advance"), (StateVector, "__post_init__")]
    originals = [getattr(owner, name) for owner, name in spanned]
    spans = tracer.Tracer()
    spans.install()
    try:
        for (owner, name), orig in zip(spanned, originals):
            assert getattr(owner, name) is not orig, f"{owner.__name__}.{name} is not wrapped"
    finally:
        spans.uninstall()
    assert [getattr(owner, name) for owner, name in spanned] == originals


@pytest.mark.parametrize("name", ["sessions", "forced-grid", "noise-sweep"])
def test_tiny_jobs_pass_their_checks(monkeypatch, tmp_path, name):
    # every field a check reads must still be there and still be right
    workloads = _load("workloads", monkeypatch)
    workload = workloads.WORKLOADS[name]
    job = workload.build(1, "tiny")
    workloads.fill_caches(job)
    ctx = workloads.Context(out_dir=str(tmp_path))
    failed = [op.tag for op in job if not workload.check(op, workload.run(op, ctx), ctx)]
    assert job and failed == []
