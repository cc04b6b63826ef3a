"""Batch front-end: run sessions, sweep noise, emit tables, synthesize meshes.

All inputs arrive as a JSON config document (file or stdin); outputs are
CSV or JSON on stdout or a named file, formatted so that identical config
and seed give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys
from typing import Optional, Sequence

import numpy as np

from . import optics
from .core import random_unitary, unitarity_deviation
from .noise import (
    NoiseKind,
    OutcomePolicy,
    compare_paper_vs_exact,
    kraus_for,
    noisy_protocol_run,
    run_fidelities,
)
from .protocol import (
    OutcomeTuple,
    PhaseVector,
    all_outcomes,
    correction_rows,
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
    """Accept finite radians as a number or a pi-fraction string like '2pi/3'."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        phase = float(value)
    elif isinstance(value, str) and (m := _PI_FORM.match(value)):
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        if div == 0:
            raise ValueError(f"phase {value!r} divides by zero")
        phase = sign * coef * np.pi / div
    elif isinstance(value, str):
        phase = float(value)
    else:
        raise ValueError(f"cannot parse phase {value!r}")
    if not math.isfinite(phase):
        raise ValueError(f"phase {value!r} is not finite")
    return phase


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; stable across runs."""
    return repr(float(x))


def _number(raw, cast, name: str):
    """cast(raw), reporting a value of the wrong type as a ValueError.

    A boolean or a string is not a number, and an integer field takes a
    float only when it is integral (4.0, not 2.7), so no value is silently
    truncated.
    """
    truncates = cast is int and isinstance(raw, float) and not raw.is_integer()
    if not isinstance(raw, (bool, str)) and not truncates:
        try:
            return cast(raw)
        except (TypeError, ValueError, OverflowError):
            pass
    kind = "an integer" if cast is int else "a number"
    raise ValueError(f"{name} must be {kind}, got {raw!r}")


# size ceilings of `run` and `sweep`: a larger dimension or trial count is an
# input error, rejected before any list or report row of that size is built
MAX_DIMENSION = 1024
MAX_TRIALS = 10**6
MAX_GAMMA_STEPS = 10**6


def _bounded(raw, name: str, low: int, high: int) -> int:
    """An integer field that must lie in low..high; the message names the field."""
    value = _number(raw, int, name)
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {raw!r}")
    if value > high:
        raise ValueError(f"{name} must be at most {high}, got {raw!r}")
    return value


def _phase_vector(dim: int, raw, name: str) -> PhaseVector:
    if raw is None:
        raise ValueError(f"missing {name}")
    if not isinstance(raw, list):
        raise ValueError(f"{name} must be a list, got {raw!r}")
    phases = []
    for i, value in enumerate(raw):
        try:
            phases.append(parse_phase(value))
        except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float range
            raise ValueError(f"{name}[{i}]: {exc}") from None
    if len(phases) != dim - 1:
        raise ValueError(
            f"{name} needs {dim - 1} entries for dimension {dim}, got {len(phases)}"
        )
    return PhaseVector(dim, phases)


# the keys each config object may hold; any other key is an input error, so a
# misspelled field cannot leave its default silently in place
RUN_KEYS = ("dimension", "alice_phases", "bob_phases", "trials", "seed",
            "forced_outcome", "noise", "policy")
SWEEP_KEYS = ("dimension", "alice_phases", "bob_phases", "noise", "policy", "gamma_grid")
TABLE_KEYS = ("dimension",)
GAMMA_GRID_KEYS = ("start", "stop", "steps")


def _known_keys(doc: dict, keys: tuple[str, ...], name: str) -> dict:
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown {name} key {key!r}; expected one of {list(keys)}")
    return doc


def load_config(path: Optional[str], keys: tuple[str, ...]) -> dict:
    """The config object at `path` (or stdin), holding no key outside `keys`."""
    if path is None or path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
    return _known_keys(doc, keys, "config")


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _choice(enum, raw, name: str):
    """The member of `enum` whose value is `raw`, naming the choices if none is."""
    try:
        return enum(raw)
    except ValueError:
        raise ValueError(
            f"unknown {name} {raw!r}; expected one of {[k.value for k in enum]}"
        )


def _noise_block(raw, keys: tuple[str, ...]) -> dict:
    """A noise object holding exactly `keys`."""
    if not isinstance(raw, dict):
        raise ValueError(f"noise must be a JSON object, got {raw!r}")
    for key in keys:
        if key not in raw:
            raise ValueError(f"noise block is missing {key!r}")
    return _known_keys(raw, keys, "noise")


def _gamma_grid(raw) -> list[float]:
    if raw is None:
        raw = {"start": 0.0, "stop": 1.0, "steps": 11}
    if isinstance(raw, dict):
        _known_keys(raw, GAMMA_GRID_KEYS, "gamma_grid")
        start = _number(raw.get("start", 0.0), float, "gamma_grid start")
        stop = _number(raw.get("stop", 1.0), float, "gamma_grid stop")
        steps = _bounded(raw.get("steps", 11), "gamma_grid steps", 0, MAX_GAMMA_STEPS)
        # the ends the grid holds, checked first so that 1e308 to -1e308 cannot overflow
        for end, value in (("start", start), ("stop", stop))[:steps]:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"gamma_grid {end} {value!r} outside [0, 1]")
        return [float(g) for g in np.linspace(start, stop, steps)]
    if not isinstance(raw, list):
        raise ValueError(f"gamma_grid must be an object or a list, got {raw!r}")
    return [_number(g, float, "gamma") for g in raw]


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    cfg = load_config(args.config, RUN_KEYS)
    n = _bounded(cfg.get("dimension", 0), "dimension", 2, MAX_DIMENSION)
    trials = _bounded(cfg.get("trials", 1), "trials", 1, MAX_TRIALS)
    alice = _phase_vector(n, cfg.get("alice_phases"), "alice_phases")
    bob = _phase_vector(n, cfg.get("bob_phases"), "bob_phases")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is not None:
        seed = _number(seed, int, "seed")
    forced = cfg.get("forced_outcome")
    if forced is not None:
        if not isinstance(forced, list) or len(forced) != 4:
            raise ValueError(f"forced_outcome needs four indices l, n, m, k, got {forced!r}")
        forced = OutcomeTuple(*[_number(v, int, "forced_outcome index") for v in forced])
    noise_cfg = cfg.get("noise")
    policy = _choice(OutcomePolicy, cfg.get("policy", "averaged"), "policy")

    report: dict = {"dimension": n, "trials": []}
    all_recovered = True

    if noise_cfg is not None:
        if cfg.get("trials") is not None or seed is not None:
            raise ValueError("a noisy run is exact and takes neither trials nor seed")
        noise_cfg = _noise_block(noise_cfg, ("kind", "gamma"))
        kind = _choice(NoiseKind, noise_cfg["kind"], "noise kind")
        gamma = _number(noise_cfg["gamma"], float, "gamma")
        if forced is not None and policy is not OutcomePolicy.CONDITIONED:
            raise ValueError(
                f"forced_outcome needs policy 'conditioned' in a noisy run, got {policy.value!r}"
            )
        run = noisy_protocol_run(alice, bob, n, kind, gamma, policy, forced)
        f_a1, f_b2 = run_fidelities(run, alice, bob)
        # the residuals go right after branch_count, where a report has always had them
        items = list(run.diagnostics.items())
        report["noise"] = dict(items[:4]) | run.residuals | dict(items[4:])
        report["fidelity_a1"] = f_a1
        report["fidelity_b2"] = f_b2
    else:
        # a forced run is one trial; its outcome is given, so no seed is drawn
        for t in range(1 if forced is not None else trials):
            res = run_protocol(alice, bob, n, forced, None if seed is None else [seed, t])
            all_recovered = all_recovered and all(res.recovered)
            report["trials"].append(_trial_row(t, res, alice, bob))

    report["all_recovered"] = bool(all_recovered)
    _write_out(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if all_recovered else 1


def _trial_row(index: int, res, alice: PhaseVector, bob: PhaseVector) -> dict:
    return {
        "trial": index,
        "outcome": list(res.outcome.as_tuple()),
        "correction_a1": res.corrections.a1_index,
        "correction_b2": res.corrections.b2_index,
        # |<final|target>| on the raw arrays, so no view of the result is built
        "fidelity_a1": abs(complex(np.vdot(res.alice_final_amps, equatorial_state(bob).amplitudes))),
        "fidelity_b2": abs(complex(np.vdot(res.bob_final_amps, equatorial_state(alice).amplitudes))),
        "recovered": list(res.recovered),
    }


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, SWEEP_KEYS)
    n = _bounded(cfg.get("dimension", 4), "dimension", 2, MAX_DIMENSION)
    alice = _phase_vector(n, cfg.get("alice_phases", [0.0] * (n - 1)), "alice_phases")
    bob = _phase_vector(n, cfg.get("bob_phases", [0.0] * (n - 1)), "bob_phases")
    noise_cfg = _noise_block(cfg.get("noise", {}), ("kind",))
    kind = _choice(NoiseKind, noise_cfg["kind"], "noise kind")
    # checked, not passed on: the policy changes only diagnostics, which a sweep does not print
    _choice(OutcomePolicy, cfg.get("policy", "averaged"), "policy")
    grid = _gamma_grid(cfg.get("gamma_grid"))

    rows = compare_paper_vs_exact(kind, alice, bob, grid).rows

    if args.format == "json":
        doc = [
            {
                "gamma": r.gamma,
                "exact_fidelity_A1": r.exact_a1,
                "exact_fidelity_B2": r.exact_b2,
                "paper_fidelity": r.paper,
                "deviation": r.deviation,
            }
            for r in rows
        ]
        _write_out(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = ["gamma,exact_fidelity_A1,exact_fidelity_B2,paper_fidelity,deviation"]
        for r in rows:
            paper_s = "" if r.paper is None else _fmt(r.paper)
            dev_s = "" if r.deviation is None else _fmt(r.deviation)
            lines.append(f"{_fmt(r.gamma)},{_fmt(r.exact_a1)},{_fmt(r.exact_b2)},{paper_s},{dev_s}")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_table(args) -> int:
    n = args.dimension
    if n is not None and args.config is not None:
        raise ValueError("table takes --dimension or --config, not both")
    if n is None:
        cfg = load_config(args.config, TABLE_KEYS) if args.config else {}
        n = _number(cfg.get("dimension", 3), int, "dimension")
    if not 2 <= n <= 6:
        raise ValueError(f"table dimension must be in 2..6, got {n}")
    lines = [
        "# feed-forward corrections: A1 receives U_{m+n mod N}, B2 receives U_{k+l mod N}",
        "# note: a previously published 3-dimensional listing attaches the",
        "# (A2,C2)-derived index to the A1 column and the (B1,C1)-derived index",
        "# to the B2 column; the worked recovery identities require the",
        "# assignment used here, with the two columns swapped relative to",
        "# that listing.",
        "l,n,m,k,U_A1,U_B2",
    ]
    # integer rows straight from the rule; no outcome or rule object is built
    lines.extend("%d,%d,%d,%d,U%d,U%d" % row for row in correction_rows(n))
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
    raise ValueError(
        f"matrix cell must be a finite number or a [re, im] pair, got {cell!r}"
    )


def _load_matrix(path: str) -> np.ndarray:
    """A square, non-empty JSON matrix, bare or under the key "matrix"."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        if "matrix" not in doc:
            raise ValueError("matrix document is missing 'matrix'")
        doc = doc["matrix"]
    if not isinstance(doc, list) or not doc:
        raise ValueError(f"matrix must be a non-empty list of rows, got {doc!r}")
    size = len(doc)
    for row in doc:
        if not isinstance(row, list) or len(row) != size:
            raise ValueError(f"matrix must be square ({size}x{size}), got row {row!r}")
    return np.array([[_matrix_cell(cell) for cell in row] for row in doc], dtype=complex)


_BUILTIN_MATRICES = {
    "charlie4": lambda: optics.controller_basis_matrix(4),
    "identity4": lambda: np.eye(4, dtype=complex),
}


def cmd_decompose(args) -> int:
    if args.builtin and args.input:
        raise ValueError("decompose takes --builtin or --input, not both")
    if args.builtin:
        if args.builtin not in _BUILTIN_MATRICES:
            raise ValueError(
                f"unknown builtin {args.builtin!r}; available: {sorted(_BUILTIN_MATRICES)}"
            )
        mat = _BUILTIN_MATRICES[args.builtin]()
    elif args.input:
        mat = _load_matrix(args.input)
    else:
        raise ValueError("decompose needs --builtin or --input")
    dev = unitarity_deviation(mat)
    if not dev <= 1e-10:
        print(f"error: input matrix is not unitary (deviation {dev:.3e})", file=sys.stderr)
        return 1
    net = optics.reck_decompose(mat)
    err = optics.reconstruction_error(net, mat)
    doc = optics._network_doc(net)
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
        devs = [kraus_for(kind, g, 4).deviation for g in np.linspace(0, 1, 20)]
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


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises ValueError on a bad command line instead
    of printing its usage and exiting; `--help` still prints and exits 0."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing keeps no state in it."""
    parser = _Parser(
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
    # a bad command line ends like bad input: one error line, exit 2;
    # an OverflowError is a number too large for its use
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
