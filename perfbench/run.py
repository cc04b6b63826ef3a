"""Benchmark entry point for bcrsp.

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own child process (worker.py), so peak memory
belongs to that workload alone, with BLAS and OpenMP pinned to one thread. With --trace 0 the child reports the end-to-end metrics, and
set-up time is the median over several fresh processes. With --trace 1 it
reports per-layer metrics from a traced window, plus the ratio of traced to
untraced throughput. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
# names only: the launcher itself never imports bcrsp
WORKLOADS = ("sessions", "forced-grid", "noise-sweep")
SETUP_SAMPLES = 9
# every run, set-up probes included, must end within this many seconds
RUN_LIMIT_S = 170.0
# one BLAS/OpenMP thread: the matrices are small, and spinning BLAS workers
# on a two-CPU machine compete with the caller and double run-to-run spread
THREADS = "1"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def spawn(args, deadline: float, extra=()) -> dict:
    """Run one worker process; return its JSON report."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload}: worker did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bcrsp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S

    def probes(count: int) -> list[float]:
        return [spawn(args, deadline, ["--probe"])["setup_s"] for _ in range(count)]

    # half the set-up probes before the measured process and half after, so
    # the median spans the run instead of one moment of the host's load
    setups = [] if args.trace else probes(SETUP_SAMPLES // 2)
    report = spawn(args, deadline)
    metrics = report["metrics"]
    if not args.trace:
        setups += probes(SETUP_SAMPLES - 1 - len(setups)) + [report["setup_s"]]
        metrics["setup_s"] = (statistics.median(setups), "s")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    report["info"].update(git_sha=git_sha(), source_digest=source_digest(),
                          seed=args.seed, trace=args.trace, setup_samples=len(setups))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is a seconds-long job for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bcrsp" / "__init__.py").is_file():
        print(f"error: no bcrsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        try:
            reports[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        rep = reports[name]
        print(json.dumps({"workload": name, "info": rep["info"]}))
        for metric, m in rep["metrics"].items():
            print(f"{name:<12} {metric:<44} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<12} {'error_rate':<44} {rep['info']['error_rate']:>14.6g} ratio")

    def result(rep):
        return {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
                "failed": rep["failed"], "metrics": rep["metrics"]}

    if args.workload == "all":
        print(json.dumps({name: result(rep) for name, rep in reports.items()}))
    else:
        print(json.dumps(result(reports[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
