"""Batch front-end: run sessions, sweep noise, emit tables, synthesize meshes.

All inputs arrive as a JSON config document (file or stdin); outputs are
CSV or JSON on stdout or a named file, formatted so that identical config
and seed give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import cmath
import json
import re
import sys
from typing import Optional, Sequence

import numpy as np

from . import optics
from .core import random_unitary, unitarity_deviation
from .noise import (
    NoiseKind,
    OutcomePolicy,
    closed_form_fidelity,
    kraus_for,
    noisy_protocol_run,
    run_fidelities,
)
from .protocol import (
    OutcomeTuple,
    PhaseVector,
    all_outcomes,
    build_correction_table,
    equatorial_state,
    ghz_state,
    outcome_probability,
    run_protocol,
    verify_decomposition,
)
from .session import SessionStatus, new_session

_PI_FORM = re.compile(
    r"^\s*([+-]?)\s*(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)


def parse_phase(value) -> float:
    """Accept radians as a number or a pi-fraction string like '2pi/3'."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        m = _PI_FORM.match(value)
        if m:
            sign = -1.0 if m.group(1) == "-" else 1.0
            coef = float(m.group(2)) if m.group(2) else 1.0
            div = float(m.group(3)) if m.group(3) else 1.0
            return sign * coef * np.pi / div
        return float(value)
    raise ValueError(f"cannot parse phase {value!r}")


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; stable across runs."""
    return repr(float(x))


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


class ConfigError(Exception):
    pass


def _number(raw, cast, name: str):
    """cast(raw), reporting a value of the wrong type as a config error.

    A boolean is not a number, and an integer field takes a float only when
    it is integral (4.0, not 2.7), so no value is silently truncated.
    """
    truncates = cast is int and isinstance(raw, float) and not raw.is_integer()
    if not isinstance(raw, bool) and not truncates:
        try:
            return cast(raw)
        except (TypeError, ValueError, OverflowError):
            pass
    kind = "an integer" if cast is int else "a number"
    raise ConfigError(f"{name} must be {kind}, got {raw!r}")


def _phase_vector(dim: int, raw, name: str) -> PhaseVector:
    if raw is None:
        raise ConfigError(f"missing {name}")
    if not isinstance(raw, list):
        raise ConfigError(f"{name} must be a list, got {raw!r}")
    phases = tuple(parse_phase(v) for v in raw)
    if len(phases) != dim - 1:
        raise ConfigError(
            f"{name} needs {dim - 1} entries for dimension {dim}, got {len(phases)}"
        )
    return PhaseVector(dim, phases)


def load_config(path: Optional[str]) -> dict:
    if path is None or path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    return doc


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _noise_kind(name: str) -> NoiseKind:
    try:
        return NoiseKind(name)
    except ValueError:
        raise ConfigError(
            f"unknown noise kind {name!r}; expected one of "
            f"{[k.value for k in NoiseKind]}"
        )


def _noise_block(raw, required: tuple[str, ...]) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"noise must be a JSON object, got {raw!r}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"noise block is missing {key!r}")
    return raw


def _gamma_grid(raw) -> list[float]:
    if raw is None:
        raw = {"start": 0.0, "stop": 1.0, "steps": 11}
    if isinstance(raw, dict):
        grid = np.linspace(
            _number(raw.get("start", 0.0), float, "gamma_grid start"),
            _number(raw.get("stop", 1.0), float, "gamma_grid stop"),
            _number(raw.get("steps", 11), int, "gamma_grid steps"),
        )
        return [float(g) for g in grid]
    if not isinstance(raw, list):
        raise ConfigError(f"gamma_grid must be an object or a list, got {raw!r}")
    return [_number(g, float, "gamma") for g in raw]


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    n = _number(cfg.get("dimension", 0), int, "dimension")
    if n < 2:
        raise ConfigError(f"dimension must be at least 2, got {n}")
    alice = _phase_vector(n, cfg.get("alice_phases"), "alice_phases")
    bob = _phase_vector(n, cfg.get("bob_phases"), "bob_phases")
    trials = _number(cfg.get("trials", 1), int, "trials")
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is not None:
        seed = _number(seed, int, "seed")
    forced = cfg.get("forced_outcome")
    noise_cfg = cfg.get("noise")

    report: dict = {"dimension": n, "trials": []}
    all_recovered = True

    if noise_cfg is not None:
        noise_cfg = _noise_block(noise_cfg, ("kind", "gamma"))
        kind = _noise_kind(noise_cfg["kind"])
        gamma = _number(noise_cfg["gamma"], float, "gamma")
        policy = OutcomePolicy(cfg.get("policy", "averaged"))
        run = noisy_protocol_run(alice, bob, n, kind, gamma, policy)
        f_a1, f_b2 = run_fidelities(run, alice, bob)
        report["noise"] = run.diagnostics
        report["fidelity_a1"] = f_a1
        report["fidelity_b2"] = f_b2
    elif forced is not None:
        if not isinstance(forced, list) or len(forced) != 4:
            raise ConfigError(f"forced_outcome needs four indices l, n, m, k, got {forced!r}")
        oc = OutcomeTuple(*[_number(v, int, "forced_outcome index") for v in forced])
        res = run_protocol(alice, bob, n, outcome=oc)
        all_recovered = all(res.recovered)
        report["trials"].append(_trial_row(0, res, alice, bob))
    else:
        for t in range(trials):
            trial_seed = None if seed is None else [seed, t]
            ses = new_session(alice, bob, n, charlie_consents=True, seed=trial_seed)
            ses.run_to_completion()
            res = ses.result()
            all_recovered = all_recovered and all(res.recovered)
            report["trials"].append(_trial_row(t, res, alice, bob))

    report["all_recovered"] = bool(all_recovered)
    _write_out(json.dumps(report, indent=2, default=_json_default) + "\n", args.out)
    return 0 if all_recovered else 1


def _trial_row(index: int, res, alice: PhaseVector, bob: PhaseVector) -> dict:
    return {
        "trial": index,
        "outcome": list(res.outcome.as_tuple()),
        "correction_a1": res.corrections.a1_index,
        "correction_b2": res.corrections.b2_index,
        "fidelity_a1": abs(res.alice_final.overlap(equatorial_state(bob))),
        "fidelity_b2": abs(res.bob_final.overlap(equatorial_state(alice))),
        "recovered": list(res.recovered),
    }


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    n = _number(cfg.get("dimension", 4), int, "dimension")
    alice = _phase_vector(n, cfg.get("alice_phases", [0.0] * (n - 1)), "alice_phases")
    bob = _phase_vector(n, cfg.get("bob_phases", [0.0] * (n - 1)), "bob_phases")
    kind = _noise_kind(_noise_block(cfg.get("noise", {}), ("kind",))["kind"])
    policy = OutcomePolicy(cfg.get("policy", "averaged"))
    grid = _gamma_grid(cfg.get("gamma_grid"))

    rows = []
    for gamma in grid:
        run = noisy_protocol_run(alice, bob, n, kind, gamma, policy)
        f_a1, f_b2 = run_fidelities(run, alice, bob)
        paper = closed_form_fidelity(kind, bob, gamma)
        rows.append((gamma, f_a1, f_b2, paper))

    if args.format == "json":
        doc = [
            {
                "gamma": g,
                "exact_fidelity_A1": fa,
                "exact_fidelity_B2": fb,
                "paper_fidelity": p,
                "deviation": None if p is None else abs(fa - p),
            }
            for g, fa, fb, p in rows
        ]
        _write_out(json.dumps(doc, indent=2, default=_json_default) + "\n", args.out)
    else:
        lines = ["gamma,exact_fidelity_A1,exact_fidelity_B2,paper_fidelity,deviation"]
        for g, fa, fb, p in rows:
            paper_s = "" if p is None else _fmt(p)
            dev_s = "" if p is None else _fmt(abs(fa - p))
            lines.append(f"{_fmt(g)},{_fmt(fa)},{_fmt(fb)},{paper_s},{dev_s}")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_table(args) -> int:
    n = args.dimension
    if n is None:
        cfg = load_config(args.config) if args.config else {}
        n = _number(cfg.get("dimension", 3), int, "dimension")
    if not 2 <= n <= 6:
        raise ConfigError(f"table dimension must be in 2..6, got {n}")
    table = build_correction_table(n)
    lines = [
        "# feed-forward corrections: A1 receives U_{m+n mod N}, B2 receives U_{k+l mod N}",
        "# note: a previously published 3-dimensional listing attaches the",
        "# (A2,C2)-derived index to the A1 column and the (B1,C1)-derived index",
        "# to the B2 column; the worked recovery identities require the",
        "# assignment used here, with the two columns swapped relative to",
        "# that listing.",
        "l,n,m,k,U_A1,U_B2",
    ]
    for oc, rule in table.items():
        lines.append(
            f"{oc.l},{oc.n},{oc.m},{oc.k},U{rule.a1_index},U{rule.b2_index}"
        )
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _matrix_cell(cell) -> complex:
    """A finite number, or a [re, im] pair of them, as a complex value."""
    parts = cell if isinstance(cell, list) and len(cell) == 2 else (cell, 0)
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        try:
            value = complex(parts[0], parts[1])
        except OverflowError:
            value = complex("nan")
        if cmath.isfinite(value):
            return value
    raise ConfigError(
        f"matrix cell must be a finite number or a [re, im] pair, got {cell!r}"
    )


def _load_matrix(path: str) -> np.ndarray:
    """A square, non-empty JSON matrix, bare or under the key "matrix"."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        if "matrix" not in doc:
            raise ConfigError("matrix document is missing 'matrix'")
        doc = doc["matrix"]
    if not isinstance(doc, list) or not doc:
        raise ConfigError(f"matrix must be a non-empty list of rows, got {doc!r}")
    size = len(doc)
    for row in doc:
        if not isinstance(row, list) or len(row) != size:
            raise ConfigError(f"matrix must be square ({size}x{size}), got row {row!r}")
    return np.array([[_matrix_cell(cell) for cell in row] for row in doc], dtype=complex)


_BUILTIN_MATRICES = {
    "charlie4": lambda: optics.controller_basis_matrix(4),
    "identity4": lambda: np.eye(4, dtype=complex),
}


def cmd_decompose(args) -> int:
    if args.builtin:
        if args.builtin not in _BUILTIN_MATRICES:
            raise ConfigError(
                f"unknown builtin {args.builtin!r}; available: {sorted(_BUILTIN_MATRICES)}"
            )
        mat = _BUILTIN_MATRICES[args.builtin]()
    elif args.input:
        mat = _load_matrix(args.input)
    else:
        raise ConfigError("decompose needs --builtin or --input")
    dev = unitarity_deviation(mat)
    if dev > 1e-10:
        print(f"error: input matrix is not unitary (deviation {dev:.3e})", file=sys.stderr)
        return 1
    net = optics.reck_decompose(mat)
    err = optics.reconstruction_error(net, mat)
    doc = json.loads(optics.network_to_json(net))
    doc["reconstruction_error"] = _fmt(err)
    doc["beam_splitters"] = len(net.beam_splitters())
    doc["phase_shifters"] = len(net.phase_shifters())
    _write_out(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    """Fast end-to-end invariant sweep; nonzero exit on any failure."""
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(20240001)

    def record(name: str, ok: bool, detail: str = ""):
        checks.append((name, bool(ok), detail))

    for n in (2, 3, 4):
        a = PhaseVector(n, tuple(rng.uniform(0, 2 * np.pi, n - 1)))
        b = PhaseVector(n, tuple(rng.uniform(0, 2 * np.pi, n - 1)))
        chk = verify_decomposition(a, b, n)
        record(f"channel decomposition N={n}", chk.ok, f"max dev {chk.max_deviation:.2e}")

    for n in (2, 3, 4, 5, 6):
        a = PhaseVector(n, tuple(rng.uniform(0, 2 * np.pi, n - 1)))
        b = PhaseVector(n, tuple(rng.uniform(0, 2 * np.pi, n - 1)))
        ocs = list(all_outcomes(n)) if n <= 3 else [
            OutcomeTuple(*rng.integers(0, n, 4)) for _ in range(30)
        ]
        ok = all(all(run_protocol(a, b, n, outcome=oc).recovered) for oc in ocs)
        record(f"recovery N={n}", ok, f"{len(ocs)} outcome tuples")

    probs = [outcome_probability(3, oc) for oc in all_outcomes(3)]
    record(
        "outcome uniformity N=3",
        max(abs(p - 1 / 81) for p in probs) < 1e-10,
        "all 81 tuples",
    )

    for kind in NoiseKind:
        sets = [kraus_for(kind, g, 4) for g in np.linspace(0, 1, 20)]
        devs = [ks.completeness_deviation(ks.operators) for ks in sets]
        record(f"kraus completeness {kind.value}", max(devs) <= 1e-10, f"max {max(devs):.2e}")

    zero4 = PhaseVector.zero(4)
    run = noisy_protocol_run(zero4, zero4, 4, NoiseKind.QUDIT_FLIP, 0.6)
    f, _ = run_fidelities(run, zero4, zero4)
    record("qudit-flip unity fidelity (gamma=0.6)", abs(f - 1.0) < 1e-10, f"F={f:.12f}")

    q = random_unitary(rng, 4)
    net = optics.reck_decompose(q)
    record(
        "mesh synthesis round trip (4 modes)",
        optics.reconstruction_error(net, q) <= 1e-10,
        f"{len(net.beam_splitters())} couplers",
    )
    record(
        "ghz from controlled shift N<=16",
        all(
            np.array_equal(optics.ghz_via_cnot(n).amplitudes, ghz_state(n).amplitudes)
            for n in range(2, 17)
        ),
    )
    record("correction circuits equal unitaries", optics.verify_correction_circuits(4))

    ses = new_session(PhaseVector.zero(3), PhaseVector.zero(3), 3, True, seed=1)
    ses.run_to_completion()
    record("session completes with 8 announcements",
           ses.status is SessionStatus.COMPLETED and len(ses.transcript) == 8)

    width = max(len(name) for name, _, _ in checks)
    failed = 0
    out_lines = []
    for name, ok, detail in checks:
        status = "ok" if ok else "FAIL"
        failed += 0 if ok else 1
        suffix = f"  ({detail})" if detail else ""
        out_lines.append(f"{name:<{width}}  {status}{suffix}")
    out_lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    _write_out("\n".join(out_lines) + "\n", args.out)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcrsp",
        description="Simulate bidirectional controlled remote state preparation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute protocol sessions from a config")
    p_run.add_argument("--config", help="JSON config file, or - for stdin")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--out", help="output file (default stdout)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="noise sweep over a gamma grid")
    p_sweep.add_argument("--config", help="JSON config file, or - for stdin")
    p_sweep.add_argument("--seed", type=int, help="unused; sweeps are deterministic")
    p_sweep.add_argument("--out", help="output file (default stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table", help="emit the full correction table")
    p_table.add_argument("--dimension", type=int)
    p_table.add_argument("--config", help="JSON config file, or - for stdin")
    p_table.add_argument("--out", help="output file (default stdout)")
    p_table.set_defaults(func=cmd_table)

    p_dec = sub.add_parser("decompose", help="synthesize a beam-splitter mesh")
    p_dec.add_argument("--input", help="JSON matrix file")
    p_dec.add_argument("--builtin", help="named builtin matrix (e.g. charlie4)")
    p_dec.add_argument("--out", help="output file (default stdout)")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--out", help="output file (default stdout)")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
