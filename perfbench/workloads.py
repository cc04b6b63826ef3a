"""The three benchmark workloads: inputs from a seed, the op, the check.

Each workload builds a fixed job (a list of ops) from its seed. The cost
structure of a job (how many ops of each class, which noise strengths are
zero) never depends on the seed; the seed picks phases, outcome tuples,
session seeds, unitaries and op order. So every seed does the same amount
of work and runs of different seeds can be compared.

Every op has a check against a reference that does not come from the code
under test (own target vectors, own mesh composition, exact laws). Checks
run outside the timed region.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

import bcrsp
from bcrsp import cli
from bcrsp.noise import NoiseKind, OutcomePolicy, closed_form_fidelity
from bcrsp.protocol import (
    OutcomeTuple,
    PhaseVector,
    channel_state,
    fourier_basis,
    sender_basis,
)
from bcrsp.session import SessionStatus

STATE_TOL = 1e-10
PROBABILITY_TOL = 1e-12
LAW_TOL = 1e-9
EIG_FLOOR = -1e-12

# reference values; the smoke test corrupts them to prove the checks bite
COMPLETED_MESSAGES = 8
ABORTED_MESSAGES = 4


def uniform_probability(n: int) -> float:
    """Every joint outcome of the noiseless protocol has probability 1/N^4."""
    return 1.0 / n**4


def phase_flip_law(g: float) -> float:
    """Exact N=4 shift-and-phase fidelity of the flat target (README findings)."""
    return float(np.sqrt((1 - 3 * g / 4) ** 2 + 3 * g**2 / 16))


def dephasing_law(g: float) -> float:
    """Exact N=4 dephasing fidelity, for flat and random targets alike."""
    return float(np.sqrt((8 - 9 * g + 3 * g**2) / 8))


@dataclass(frozen=True)
class Op:
    tag: str       # op class, e.g. "session.n4"; used for per-class statistics
    key: tuple     # plain description of the inputs, hashed into the job digest
    inputs: tuple  # the prebuilt arguments handed to the program


@dataclass
class Context:
    """Per-run state the ops and checks share: scratch dir, first CLI outputs."""

    out_dir: str
    first_output: dict = field(default_factory=dict)
    bytes_out: int = 0


def job_digest(job: list[Op]) -> str:
    h = hashlib.sha256()
    for op in job:
        h.update(repr((op.tag, op.key)).encode())
    return h.hexdigest()


def _phases(rng: np.random.Generator, n: int) -> PhaseVector:
    return PhaseVector(n, tuple(float(x) for x in rng.uniform(0, 2 * np.pi, n - 1)))


def _target(p: PhaseVector) -> np.ndarray:
    return np.exp(1j * np.concatenate(([0.0], p.phases))) / np.sqrt(p.dim)


def _matches(state, target: np.ndarray) -> bool:
    return abs(abs(np.vdot(target, state.amplitudes)) - 1.0) <= STATE_TOL


# ---------------------------------------------------------------------------
# sessions: the `bcrsp run` trial loop


# (N, ops per job, of which aborted). Sorted by cost, the 100 ops of a job
# put the median in the middle of the N=4 class and the 90th percentile in
# the middle of the N=8 class, so neither sits on a class boundary.
SESSION_MIX = {
    "full": ((2, 13, 5), (3, 14, 5), (4, 40, 0), (5, 8, 0), (6, 11, 0),
             (8, 8, 0), (12, 4, 0), (16, 2, 0)),
    "tiny": ((2, 4, 1), (3, 3, 1), (4, 3, 0)),
}
# phase pairs per N: a `bcrsp run` config fixes the phases for all its trials
SESSION_CONFIGS = 4


def build_sessions(seed: int, size: str) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    job = []
    for n, count, aborted in SESSION_MIX[size]:
        configs = [(_phases(rng, n), _phases(rng, n)) for _ in range(SESSION_CONFIGS)]
        for i in range(count):
            alice, bob = configs[int(rng.integers(SESSION_CONFIGS))]
            consents = i >= aborted
            ses_seed = int(rng.integers(2**31))
            tag = f"session.n{n}" + ("" if consents else ".abort")
            key = (n, alice.phases, bob.phases, consents, ses_seed)
            job.append(Op(tag, key, (alice, bob, n, consents, ses_seed)))
    rng.shuffle(job)
    return job


def run_session(op: Op, ctx: Context):
    alice, bob, n, consents, ses_seed = op.inputs
    ses = bcrsp.new_session(alice, bob, n, charlie_consents=consents, seed=ses_seed)
    status = ses.run_to_completion()
    result = ses.result() if status is SessionStatus.COMPLETED else None
    doc = bcrsp.import_transcript(bcrsp.export_transcript(ses))
    return ses, result, doc


def check_session(op: Op, out, ctx: Context) -> bool:
    alice, bob, n, consents, _ = op.inputs
    ses, result, doc = out
    msgs = tuple(ses.transcript)
    round_trip = (
        doc.dimension == n
        and doc.status is ses.status
        and len(doc.messages) == len(msgs)
        and all(a == b for a, b in zip(doc.messages, msgs))
    )
    if not consents:
        return (
            round_trip
            and ses.status is SessionStatus.ABORTED
            and len(msgs) == ABORTED_MESSAGES
        )
    announced = {m.basis_label: m.outcome_index for m in msgs}
    l, nn, m, k = (announced[x] for x in ("A2", "B1", "C1", "C2"))
    return (
        round_trip
        and ses.status is SessionStatus.COMPLETED
        and len(msgs) == COMPLETED_MESSAGES
        and result.recovered == (True, True)
        and result.outcome.as_tuple() == (l, nn, m, k)
        and result.corrections.a1_index == (m + nn) % n
        and result.corrections.b2_index == (k + l) % n
        and _matches(result.alice_final, _target(bob))
        and _matches(result.bob_final, _target(alice))
    )


# ---------------------------------------------------------------------------
# forced-grid: criterion-01 style forced runs plus oracle and tooling ops


@dataclass(frozen=True)
class GridSpec:
    passes: int          # passes per job, each with fresh phases
    full_ns: tuple       # N run over every outcome tuple
    slice_ns: tuple      # N run over a random slice of tuples
    slice_len: int
    oracle_ns: tuple     # N for outcome_probability and verify_decomposition
    probabilities: int   # outcome_probability ops per N and pass
    mesh_ns: tuple       # N of the random unitaries given to reck_decompose
    table_ns: tuple      # `bcrsp table` dimension, one per pass in turn


# Per pass of 517 ops, the 90th percentile lands inside the forced N=7 class.
FORCED_GRID = {
    "full": GridSpec(5, (2, 3, 4), (5, 6, 7, 8), 24, (2, 3, 4), 16, tuple(range(2, 17)),
                     (2, 3, 4, 5, 6)),
    "tiny": GridSpec(1, (2,), (3,), 4, (2,), 4, (2, 3, 4), (2,)),
}


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def build_forced_grid(seed: int, size: str) -> list[Op]:
    spec = FORCED_GRID[size]
    rng = np.random.default_rng([seed, 2])
    job = []
    for p in range(spec.passes):
        ops = []
        ns = (*spec.full_ns, *spec.slice_ns)
        phases = {n: (_phases(rng, n), _phases(rng, n)) for n in ns}
        for n in ns:
            tuples = (
                itertools.product(range(n), repeat=4) if n in spec.full_ns
                else (tuple(int(v) for v in rng.integers(0, n, 4))
                      for _ in range(spec.slice_len))
            )
            alice, bob = phases[n]
            for t in tuples:
                ops.append(Op(f"forced.n{n}", ("forced", n, alice.phases, bob.phases, t),
                              (alice, bob, n, OutcomeTuple(*t))))
        for n in spec.oracle_ns:
            for _ in range(spec.probabilities):
                t = tuple(int(v) for v in rng.integers(0, n, 4))
                ops.append(Op(f"probability.n{n}", ("probability", n, t), (n, OutcomeTuple(*t))))
            alice, bob = phases[n]
            ops.append(Op(f"decomposition.n{n}", ("decomposition", n, alice.phases, bob.phases),
                          (alice, bob, n)))
        for n in spec.mesh_ns:
            u = _random_unitary(rng, n)
            ops.append(Op(f"reck.n{n}", ("reck", n, u.tobytes()), (u,)))
        table_n = spec.table_ns[p % len(spec.table_ns)]
        ops.append(Op("cli.table", ("cli", "table", table_n),
                      ("table", "--dimension", str(table_n))))
        ops.append(Op("cli.decompose", ("cli", "decompose"), ("decompose", "--builtin", "charlie4")))
        if p == spec.passes - 1:
            ops.append(Op("cli.verify", ("cli", "verify"), ("verify",)))
        rng.shuffle(ops)
        job.extend(ops)
    return job


def run_forced_grid(op: Op, ctx: Context):
    kind = op.tag.split(".")[0]
    if kind == "forced":
        alice, bob, n, outcome = op.inputs
        return bcrsp.run_protocol(alice, bob, n, outcome=outcome)
    if kind == "probability":
        return bcrsp.outcome_probability(*op.inputs)
    if kind == "decomposition":
        return bcrsp.verify_decomposition(*op.inputs)
    if kind == "reck":
        return bcrsp.reck_decompose(*op.inputs)
    argv = [*op.inputs, "--out", _cli_out_path(op, ctx)]
    return cli.main(argv)


def _cli_out_path(op: Op, ctx: Context) -> str:
    return os.path.join(ctx.out_dir, "-".join(op.inputs) + ".out")


def _compose(net, n: int) -> np.ndarray:
    """Mesh matrix from the element fields, following the documented blocks."""
    out = np.eye(n, dtype=complex)
    for el in net.elements:
        mat = np.eye(n, dtype=complex)
        if isinstance(el, bcrsp.BeamSplitter):
            ph, s, c = np.exp(1j * el.phi), np.sin(el.omega), np.cos(el.omega)
            mat[el.n, el.n], mat[el.n, el.m] = ph * s, ph * c
            mat[el.m, el.n], mat[el.m, el.m] = c, -s
        else:
            mat[el.mode, el.mode] = np.exp(1j * el.theta)
        out = out @ mat
    return out


def check_forced_grid(op: Op, out, ctx: Context) -> bool:
    kind = op.tag.split(".")[0]
    if kind == "forced":
        alice, bob, n, outcome = op.inputs
        l, nn, m, k = outcome.as_tuple()
        return (
            out.recovered == (True, True)
            and out.outcome == outcome
            and abs(out.probability - uniform_probability(n)) <= PROBABILITY_TOL
            and out.corrections.a1_index == (m + nn) % n
            and out.corrections.b2_index == (k + l) % n
            and _matches(out.alice_final, _target(bob))
            and _matches(out.bob_final, _target(alice))
        )
    if kind == "probability":
        return abs(out - uniform_probability(op.inputs[0])) <= PROBABILITY_TOL
    if kind == "decomposition":
        return out.ok and out.max_deviation <= STATE_TOL
    if kind == "reck":
        (u,) = op.inputs
        n = u.shape[0]
        return (
            len(out.beam_splitters()) == n * (n - 1) // 2
            and float(np.max(np.abs(_compose(out, n) - u))) <= STATE_TOL
        )
    if out != 0:
        return False
    with open(_cli_out_path(op, ctx), "rb") as fh:
        data = fh.read()
    ctx.bytes_out += len(data)
    if data != ctx.first_output.setdefault(op.inputs, data):
        return False
    return _check_cli_text(op.inputs, data.decode())


def _check_cli_text(argv: tuple, text: str) -> bool:
    lines = text.splitlines()
    if argv[0] == "table":
        n = int(argv[2])
        rows = [line.split(",") for line in lines if line[:1].isdigit()]
        return len(rows) == n**4 and all(
            a1 == f"U{(int(m) + int(nn)) % n}" and b2 == f"U{(int(k) + int(l)) % n}"
            for l, nn, m, k, a1, b2 in rows
        )
    if argv[0] == "decompose":
        doc = json.loads(text)
        return float(doc["reconstruction_error"]) <= STATE_TOL and doc["beam_splitters"] == 6
    total = len(lines) - 1
    return total > 0 and lines[-1] == f"{total}/{total} checks passed"


# ---------------------------------------------------------------------------
# noise-sweep: `bcrsp sweep` traffic, one op per gamma


GAMMA_GRID = tuple(float(g) for g in np.linspace(0.0, 1.0, 11))

# Non-zero gammas drawn per N for (flip, dephasing, phase flip), besides
# gamma = 0. The evaluator's cost is the same for every gamma > 0, so only
# these counts set a job's cost.
NOISE_GAMMAS = {
    "full": {2: (5, 5, 5), 3: (5, 5, 5), 4: (5, 5, 1)},
    "tiny": {2: (1, 1, 1), 4: (0, 1, 0)},
}
KINDS = (NoiseKind.QUDIT_FLIP, NoiseKind.DEPHASING, NoiseKind.QUDIT_PHASE_FLIP)
VARIANTS = tuple(itertools.product(OutcomePolicy, ("flat", "random")))
# An N=4 qudit-phase-flip op at gamma > 0 takes seconds; it runs averaged on
# the flat target and conditioned on a random one. Every other op is cheap
# and appears in CHEAP_ROUNDS shuffled rounds of the job, which gives it more
# timings per run; it still counts as one op of the job.
SLOW_VARIANTS = ((OutcomePolicy.AVERAGED, "flat"), (OutcomePolicy.CONDITIONED, "random"))
CHEAP_ROUNDS = 2


def build_noise_sweep(seed: int, size: str) -> list[Op]:
    """198 distinct ops (full size). Sorted by cost, the 90th percentile lies
    deep inside the N=4 averaged flip/dephasing class and the median deep
    inside the N=3 conditioned flip/dephasing class, each at least twice as
    costly as the next cheaper class."""
    rng = np.random.default_rng([seed, 3])
    slow, cheap = [], []
    nonzero = GAMMA_GRID[1:]
    for n, counts in NOISE_GAMMAS[size].items():
        for kind, count in zip(KINDS, counts):
            picked = sorted(rng.choice(len(nonzero), size=count, replace=False))
            for g in (0.0, *(nonzero[i] for i in picked)):
                is_slow = g > 0.0 and n == 4 and kind is NoiseKind.QUDIT_PHASE_FLIP
                flat = PhaseVector.zero(n)
                rand = (_phases(rng, n), _phases(rng, n))
                cond = OutcomeTuple(*(int(v) for v in rng.integers(1, n, 4)))
                for policy, target in SLOW_VARIANTS if is_slow else VARIANTS:
                    alice, bob = (flat, flat) if target == "flat" else rand
                    oc = cond if policy is OutcomePolicy.CONDITIONED else None
                    tag = f"noisy.{kind.value}.n{n}.{policy.value}.{target}" + (
                        ".g0" if g == 0.0 else "")
                    key = (kind.value, n, g, policy.value, alice.phases, bob.phases,
                           None if oc is None else oc.as_tuple())
                    op = Op(tag, key, (alice, bob, n, kind, g, policy, oc))
                    (slow if is_slow else cheap).append(op)
    rounds = []
    for r in range(CHEAP_ROUNDS):
        ops = cheap + slow if r == 0 else list(cheap)
        rng.shuffle(ops)
        rounds.extend(ops)
    return rounds


def run_noise_sweep(op: Op, ctx: Context):
    alice, bob, n, kind, g, policy, oc = op.inputs
    run = bcrsp.noisy_protocol_run(alice, bob, n, kind, g, policy, oc)
    rho_a1 = run.a1_ensemble.density_matrix()
    rho_b2 = run.b2_ensemble.density_matrix()
    f_a1 = bcrsp.fidelity_density(bcrsp.equatorial_state(bob), rho_a1)
    f_b2 = bcrsp.fidelity_density(bcrsp.equatorial_state(alice), rho_b2)
    closed_form_fidelity(kind, bob, g)
    return run.diagnostics, rho_a1, rho_b2, f_a1, f_b2


def _is_density(rho: np.ndarray) -> bool:
    return (
        abs(np.trace(rho) - 1.0) <= STATE_TOL
        and float(np.max(np.abs(rho - rho.conj().T))) <= STATE_TOL
        and float(np.min(np.linalg.eigvalsh(rho))) >= EIG_FLOOR
    )


def _kraus_count(kind: NoiseKind, n: int, g: float) -> int:
    if g == 0.0:
        return 1
    return 1 + (n - 1) ** 2 if kind is NoiseKind.QUDIT_PHASE_FLIP else n


def check_noise_sweep(op: Op, out, ctx: Context) -> bool:
    alice, bob, n, kind, g, policy, oc = op.inputs
    diagnostics, rho_a1, rho_b2, f_a1, f_b2 = out
    if diagnostics["branch_count"] != _kraus_count(kind, n, g) ** 4:
        return False
    if not (_is_density(rho_a1) and _is_density(rho_b2)):
        return False
    flat = not any(alice.phases) and not any(bob.phases)
    expected = None
    if g == 0.0 or (kind is NoiseKind.QUDIT_FLIP and flat):
        expected = 1.0
    elif n == 4 and kind is NoiseKind.DEPHASING:
        expected = dephasing_law(g)
    elif n == 4 and kind is NoiseKind.QUDIT_PHASE_FLIP and flat:
        expected = phase_flip_law(g)
    if expected is None:
        return 0.0 <= f_a1 <= 1.0 + LAW_TOL and 0.0 <= f_b2 <= 1.0 + LAW_TOL
    return abs(f_a1 - expected) <= LAW_TOL and abs(f_b2 - expected) <= LAW_TOL


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: object
    run: object
    check: object


WORKLOADS = {
    "sessions": Workload(build_sessions, run_session, check_session),
    "forced-grid": Workload(build_forced_grid, run_forced_grid, check_forced_grid),
    "noise-sweep": Workload(build_noise_sweep, run_noise_sweep, check_noise_sweep),
}


def fill_caches(job: list[Op]) -> None:
    """First-call cache fill: the channel state, controller and sender bases."""
    phases = {arg for op in job for arg in op.inputs if isinstance(arg, PhaseVector)}
    for n in sorted({p.dim for p in phases}):
        channel_state(n)
        fourier_basis(n)
    for p in phases:
        sender_basis(p)
