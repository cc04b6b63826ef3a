"""One workload in one process: set up, run whole jobs for a time budget, check.

Started by run.py, which passes the monotonic clock reading taken just
before the process was spawned, so set-up is measured from process start.
Prints one JSON object on stdout.

The loop is closed: one caller issues the next op when the previous one
returns. The job runs at least once and then cycles until the time budget
is spent; metrics are taken per distinct op of the job, so every run
reports the same mix of op classes. Op latency excludes the correctness
check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import re
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer, p50_ms

ROOT = Path(__file__).resolve().parents[1]

SESSION_SPANS = {
    "session.new_session",
    "session.advance.step1",
    "session.advance.step2",
    "session.advance.step3",
}
FLIP_DEPHASING_N4 = re.compile(r"noisy\.(qudit-flip|dephasing)\.n4\.averaged\.(flat|random)")
PHASE_FLIP_N4 = re.compile(r"noisy\.qudit-phase-flip\.n4\.averaged\.(flat|random)")

CALLS = ("core.project", "core.measure", "core.apply_on", "protocol.run_protocol",
         "noise.noisy_protocol_run", "optics.reck_decompose", "cli.main")
SELF_TIMES = (
    "core.project", "core.measure", "core.apply_on", "core.tensor",
    "core.ensemble_from_density", "core.fidelity_density",
    "protocol.run_protocol", "protocol.channel_state",
    "protocol.verify_decomposition", "protocol.outcome_probability",
    "session.advance.step1", "session.advance.step2", "session.advance.step3",
    "session.new_session", "session.export_transcript", "session.import_transcript",
    "noise.noisy_protocol_run", "noise.kraus_for",
    "optics.reck_decompose", "optics.compose_network", "optics.ghz_via_cnot",
    "cli.main",
)
P50S = ("protocol.run_protocol", "noise.noisy_protocol_run")
COUNTERS = ("core.StateVector.calls", "noise.kraus_histories")
HIT_RATIOS = ("protocol.channel_state", "protocol.sender_basis")
# per-op inclusive time of named spans, for comparison with the ROADMAP baseline
BASELINE = {
    "baseline.run_protocol.n4.p50_ms": (lambda t: t == "forced.n4", {"protocol.run_protocol"}),
    "baseline.session.n4.p50_ms": (lambda t: t == "session.n4", SESSION_SPANS),
    "baseline.session.n8.p50_ms": (lambda t: t == "session.n8", SESSION_SPANS),
    "baseline.noisy.n4_flip_dephasing.p50_ms": (
        FLIP_DEPHASING_N4.fullmatch, {"noise.noisy_protocol_run"}),
    "baseline.noisy.n4_phase_flip.p50_ms": (
        PHASE_FLIP_N4.fullmatch, {"noise.noisy_protocol_run"}),
}


class Window:
    """Latencies, tags and failures of the ops run in one measured window.

    Each distinct op of the job is timed every time it runs, and its latency
    is the lowest of those times: every run of an op does identical work,
    and contention from other tenants of a shared host only ever adds time,
    so the floor is the steadiest estimate of what the code costs.
    Throughput and percentiles are taken over these per-op floors, one per
    distinct op of the job.
    """

    def __init__(self, job):
        ids: dict[int, int] = {}
        self.op_ids = np.array([ids.setdefault(id(op), len(ids)) for op in job])
        self.distinct_ops = len(ids)
        self.latencies: list[float] = []
        self.tags: list[str] = []
        self.failed = 0

    def op_floor(self) -> np.ndarray:
        positions = np.arange(len(self.latencies)) % len(self.op_ids)
        floor = np.full(self.distinct_ops, np.inf)
        np.minimum.at(floor, self.op_ids[positions], self.latencies)
        return floor

    @property
    def ops_per_s(self) -> float:
        return self.distinct_ops / float(self.op_floor().sum())

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.op_floor(), q)) * 1e3


def run_window(workload, job, ctx, seconds: float, tracer=None) -> Window:
    """Run the job once, then keep cycling through it until `seconds` of
    wall time have passed."""
    win = Window(job)
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(itertools.cycle(job)):
        if i >= len(job) and time.perf_counter() >= deadline:
            return win
        span = tracer.begin_op(op.tag) if tracer else None
        if tracer:
            tracer.active = True
        error = None
        t = time.perf_counter()
        try:
            out = workload.run(op, ctx)
        except Exception as exc:  # an op that raises is a failed op
            error = exc
        dt = time.perf_counter() - t
        if tracer:
            tracer.active = False
            tracer.end(span)
        win.latencies.append(dt)
        win.tags.append(op.tag)
        if error is None:
            try:
                ok = workload.check(op, out, ctx)
            except Exception as exc:  # a check that cannot run is a failure
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            if win.failed == 0:
                detail = "".join(traceback.format_exception(error)) if error else ""
                print(f"check failed on {op.tag} {op.key!r}\n{detail}", file=sys.stderr)
            win.failed += 1


def class_p50_ms(win: Window) -> dict:
    by_tag: dict[str, list[float]] = {}
    for tag, dt in zip(win.tags, win.latencies):
        by_tag.setdefault(tag, []).append(dt)
    return {tag: float(np.median(v)) * 1e3 for tag, v in sorted(by_tag.items())}


def end_to_end(win: Window) -> dict:
    return {
        "ops_per_s": (win.ops_per_s, "1/s"),
        "op_p50_ms": (win.percentile_ms(50), "ms"),
        "op_p90_ms": (win.percentile_ms(90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1.0 - win.failed / len(win.latencies), "ratio"),
    }


def per_layer(tracer, ctx, overhead: float) -> dict:
    spans = tracer.summary()
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (spans[name]["calls"], "count")
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (spans[name]["self_s"], "s")
    for name in P50S:
        out[f"{name}.p50_ms"] = (p50_ms(spans[name]["durations"]), "ms")
    for name in COUNTERS:
        out[name] = (tracer.counters[name], "count")
    for name in HIT_RATIOS:
        out[f"{name}.hit_ratio"] = (tracer.hit_ratio(name), "ratio")
    out["cli.bytes_out"] = (ctx.bytes_out, "bytes")
    for metric, (tag_filter, names) in BASELINE.items():
        out[metric] = (p50_ms(tracer.per_op_time(tag_filter, names)), "ms")
    out["trace.ops_per_s_ratio"] = (overhead, "ratio")
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--probe", action="store_true", help="exit once set up")
    args = parser.parse_args(argv)

    import bcrsp

    if not Path(bcrsp.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: bcrsp imported from {bcrsp.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    job = workload.build(args.seed, args.size)
    workloads.fill_caches(job)
    setup_s = time.monotonic() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=scratch)
    try:
        ctx = workloads.Context(out_dir)
        if args.trace:
            plain = run_window(workload, job, ctx, args.seconds / 2)
            ctx.bytes_out = 0
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_window(workload, job, ctx, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, ctx, traced.ops_per_s / plain.ops_per_s)
            windows = (plain, traced)
        else:
            win = run_window(workload, job, ctx, args.seconds)
            metrics = end_to_end(win)
            windows = (win,)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(len(w.latencies) for w in windows)
    failed = sum(w.failed for w in windows)
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "input_digest": workloads.job_digest(job),
            "job_ops": len({id(op) for op in job}),
            "error_rate": failed / attempted,
            "class_p50_ms": class_p50_ms(windows[0]),
            "env": environment(),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
