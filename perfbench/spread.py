"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sessions,noise-sweep --seeds 1-10 \
        --out perfbench/results/<name>.json

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median,
which is how a change is judged against BENCHMARK.json's bounds. With
--out it also records every run's metrics, input digest and environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(next(line for line in lines if line.startswith('{"workload"')))["info"]
    return {"seed": seed, "result": json.loads(lines[-1]), "info": info}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run to this JSON file")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    record = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            r = run(workload, seed, args.seconds, args.trace)
            res = r["result"]
            print(f"{workload} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} digest={r['info']['input_digest'][:16]}", flush=True)
            runs.append(r)
        record[workload] = runs
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound={bound} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:<44} median={med:<12.6g} spread={spread:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
