"""Noise channels on the distributed qudits and exact noisy-run evaluation.

Three channels are modeled: cyclic basis shifts (qudit flip), diagonal
coherence damping (dephasing), and combined shift-plus-phase errors
(qudit phase flip). Noise acts only on the four particles that travel:
B1 and C1 out of the first GHZ resource, A2 and C2 out of the second;
A1 and B2 stay with their preparers and are ideal.

The exact evaluator works per GHZ leg: noise on B1 and C1 reaches only A1,
and noise on A2 and C2 reaches only B2. The corrections cancel every outcome
phase, so each outcome tuple has probability 1/N^4 and leaves each kept qudit
in its target |t><t| sent through one single-qudit map: Phi_flip once,
Phi_deph twice, or Phi_sp then Delta_g(rho) = (1-g) rho + g diag(rho), with
Phi_k the channel `kraus_for(k, g, N)`. Each map is a gamma-weighted sum of
two pieces kept on the target's record, so the map costs O(N^2) and is exact over
every Kraus history without enumerating them. A call is O(N^2) too: it
checks completeness, Phi(I) = I, on every call, and returns both outputs
as one read-only (2, N, N) block, `NoisyRunResult.rhos`. What is O(N^3)
waits for a first read and then runs once over the whole block: the
invariant residuals, one batched `eigvalsh`, on `NoisyRunResult.residuals`,
and both pure-branch views, one batched `eigh`, on `a1_ensemble` or
`b2_ensemble`. The closed-form fidelity
expressions quoted alongside are reference evaluators only; agreement with
the exact simulation is reported, never assumed.

Why the outcome policy leaves the outputs alone: the corrections are
diagonal, so every outcome tuple gives the same outputs for every noise
channel that commutes with diagonal phases, as all three kinds here do.
That covariance is a condition, not a law. With the tests' Kraus-stack
factors at N=4, qudit amplitude damping (not modeled here) also gives every
(n, m) the same A1 fidelity, 0.781025 at gamma = 0.4, while a fixed
random-unitary error of weight 0.4 spreads it over 0.634-0.823. A channel
without the covariance would need the policy to select the outputs again.

`kraus_for` returns each channel use as a `KrausSet` from one raw
(K, N, N) stack filled by fancy indexing; `KrausSet` checks completeness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    ATOL,
    BranchEnsemble,
    KrausSet,
    Operator,
    ensemble_from_density,
    fidelity_density,
)
from .protocol import (
    OutcomeTuple,
    PhaseVector,
    _TARGETS,
    _check_dimension,
    _check_dims,
    _read_only,
    phase_table,
)


class NoiseKind(Enum):
    QUDIT_FLIP = "qudit-flip"
    DEPHASING = "dephasing"
    QUDIT_PHASE_FLIP = "qudit-phase-flip"


class OutcomePolicy(Enum):
    AVERAGED = "averaged"      # mix all outcome tuples with their Born weights
    CONDITIONED = "conditioned"  # post-select one outcome tuple


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"noise factor gamma={gamma} outside [0, 1]")
    return gamma


def _kraus_count(kind: NoiseKind, gamma: float, n: int) -> int:
    """K, the number of Kraus operators of one channel use: 1 at gamma = 0,
    where only the identity (or the damping diagonal) is left."""
    if gamma == 0:
        return 1
    return n * n - 2 * n + 2 if kind is NoiseKind.QUDIT_PHASE_FLIP else n


def kraus_for(kind: NoiseKind, gamma: float, n: int = 4) -> KrausSet:
    """The K Kraus operators of one channel use, as a validated `KrausSet`.

    Dephasing: diag(1, sqrt(1-g), ..., sqrt(1-g)), then sqrt(g) |s><s| for
    s = 1..N-1. Shift kinds: sqrt(1-(N-1)g/N) times the identity, then
    c sum_j e^{i 2pi ja/N} |j+b><j| with c = sqrt(g/N), a = 0, b = 1..N-1
    (flip) or c = sqrt(g/(N(N-1))), a, b = 1..N-1, a outer (shift and phase:
    both indices nonzero, the one zero pattern that keeps the set complete).
    The operators are filled into one (K, N, N) stack; `KrausSet` raises
    ValueError when sum_k K_k+ K_k departs from the identity by more than ATOL.
    """
    _check_dimension(n)
    gamma = _check_gamma(gamma)
    count = _kraus_count(kind, gamma, n)
    stack = np.zeros((count, n, n), dtype=complex)
    col = np.arange(n)
    if kind is NoiseKind.DEPHASING:
        stack[0, col, col] = np.sqrt(1 - gamma)
        stack[0, 0, 0] = 1.0
        rest = col[1:count]
        stack[rest, rest, rest] = np.sqrt(gamma)
    else:
        stack[0, col, col] = np.sqrt(1 - (n - 1) * gamma / n)
        i = np.arange(count - 1)
        if kind is NoiseKind.QUDIT_FLIP:
            a, b, coef = 0, i + 1, np.sqrt(gamma / n)
        else:
            a, b, coef = i // (n - 1) + 1, i % (n - 1) + 1, np.sqrt(gamma / (n * (n - 1)))
        stack[i[:, None] + 1, (col + b[:, None]) % n, col] = coef * phase_table(n)[a]
    return KrausSet(n, tuple(Operator(op) for op in stack))


# ---------------------------------------------------------------------------
# exact noisy protocol evaluation


@dataclass(frozen=True, eq=False)
class NoisyRunResult:
    """The exact A1 and B2 outputs of a noisy run.

    `rhos` is one read-only (2, N, N) block, the A1 output then the B2
    output; `rho_a1` and `rho_b2` are views of it. `diagnostics` holds what
    the call decided: noise, gamma, policy, branch_count and, for a
    conditioned run, conditioned_outcome and outcome_probability.
    `residuals` holds what checks the outputs: trace, hermiticity, smallest
    eigenvalue and trace error per output, from one batched `eigvalsh` of
    the block, computed on first read and kept. The first read of
    `a1_ensemble` or `b2_ensemble` runs one batched `eigh` of the block
    and keeps both ensembles.
    """

    rhos: np.ndarray
    diagnostics: dict

    @property
    def rho_a1(self) -> np.ndarray:
        """The A1 output, Bob's target through its leg (a view of `rhos`)."""
        return self.rhos[0]

    @property
    def rho_b2(self) -> np.ndarray:
        """The B2 output, Alice's target through its leg (a view of `rhos`)."""
        return self.rhos[1]

    @functools.cached_property
    def residuals(self) -> dict:
        """The eight invariant residuals, `trace_*`, `hermiticity_*`,
        `min_eigenvalue_*` and `trace_error_*` for a1 and b2."""
        return _invariant_residuals(self.rhos)

    @functools.cached_property
    def _ensembles(self) -> tuple[BranchEnsemble, BranchEnsemble]:
        return ensemble_from_density(self.rhos, (self.rhos.shape[1],))

    @property
    def a1_ensemble(self) -> BranchEnsemble:
        """Pure-branch view of rho_a1 (eigendecomposition)."""
        return self._ensembles[0]

    @property
    def b2_ensemble(self) -> BranchEnsemble:
        """Pure-branch view of rho_b2 (eigendecomposition)."""
        return self._ensembles[1]


def _leg_weights(kind: NoiseKind, gamma: float, n: int) -> np.ndarray:
    """The (2, N, N) block (W, V) with the leg's whole channel
    Phi(rho) = W * rho + V * circ(rho), where
    circ(rho)[a, q] = sum_b rho[a+b, q+b] and tr(rho) is its diagonal. Flip:
    Phi_flip(rho) = (1-g) rho + (g/N) circ(rho). Dephasing: Phi_deph twice,
    (d d^T)^2 * rho off the diagonal, d = (1, sqrt(1-g), ...). Shift-and-phase:
    Phi_sp(rho) = w0 rho + w (N tr(rho) I - circ(rho) - N diag(rho) + rho), with
    w0 = 1-(N-1)g/N and w = g/(N(N-1)), then Delta_g scales the coherences by 1-g.
    """
    block = np.zeros((2, n, n))
    weights, circ_weights = block
    diagonals = block.reshape(2, n * n)[:, :: n + 1]
    if kind is NoiseKind.QUDIT_FLIP:
        weights.fill(1 - gamma)
        circ_weights.fill(gamma / n)
    elif kind is NoiseKind.DEPHASING:
        weights.fill((1 - gamma) ** 2)
        weights[0] = weights[:, 0] = 1 - gamma
        diagonals[0] = 1.0
    else:
        w0, w = 1 - (n - 1) * gamma / n, gamma / (n * (n - 1))
        weights.fill((1 - gamma) * (w0 + w))
        circ_weights.fill(-(1 - gamma) * w)
        diagonals[0] = w0 + w - n * w
        diagonals[1] = (n - 1) * w
    return block


@functools.lru_cache(maxsize=64)
def _identity_probe(n: int) -> np.ndarray:
    """Read-only (I, circ(I)) = (I, N I): a map is complete when Phi(I) = I."""
    eye = np.eye(n, dtype=complex)
    return _read_only(np.stack((eye, n * eye)))


def _invariant_residuals(rhos: np.ndarray) -> dict:
    """Trace, hermiticity, smallest eigenvalue and trace error of the stacked
    (A1, B2) outputs, one numpy call each for both legs."""
    traces = rhos.trace(axis1=1, axis2=2)
    hermiticity = np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    min_eigenvalues = np.linalg.eigvalsh(rhos).min(axis=1)
    trace_errors = np.abs(traces - 1.0)
    legs = ("a1", "b2")
    out = {f"trace_{leg}": float(traces[i].real) for i, leg in enumerate(legs)}
    for i, leg in enumerate(legs):
        out[f"hermiticity_{leg}"] = float(hermiticity[i])
        out[f"min_eigenvalue_{leg}"] = float(min_eigenvalues[i])
        out[f"trace_error_{leg}"] = float(trace_errors[i])
    return out


def noisy_protocol_run(
    alice: PhaseVector,
    bob: PhaseVector,
    n: int,
    noise: NoiseKind,
    gamma: float,
    policy: OutcomePolicy = OutcomePolicy.AVERAGED,
    conditioned_outcome: Optional[OutcomeTuple] = None,
) -> NoisyRunResult:
    """Exact final-state density matrices at A1 and B2 under one noisy channel.

    Each output is its leg's target through the leg's whole channel, exact over
    all num_ops**4 Kraus histories of the four channel uses. Every outcome tuple
    yields the same outputs with probability 1/N^4, so the averaged policy
    (outcome record mixed as classical) and the conditioned one (one tuple
    post-selected, all zeros by default) share them.
    """
    _check_dims(alice, bob, n)
    weights = _leg_weights(noise, _check_gamma(gamma), n)
    probe = _identity_probe(n)
    # A1 holds Bob's target, B2 Alice's; the probe's leg checks completeness,
    # Phi(I) = I, on every entry, so a NaN weight anywhere fails it
    pieces = np.array((_TARGETS[bob].pieces, _TARGETS[alice].pieces, probe))
    terms = weights * pieces
    # not terms.sum(axis=1), which starts from +0.0 and so turns a -0.0 entry into +0.0
    out = terms[:, 0] + terms[:, 1]
    if not (dev := float(np.abs(out[2] - probe[0]).max())) <= ATOL:
        raise ValueError(f"Kraus set is not complete (deviation {dev:.3e})")

    diagnostics = {
        "noise": noise.value,
        "gamma": gamma,
        "policy": policy.value,
        # B1, C1, A2 and C2 each pass one channel use
        "branch_count": _kraus_count(noise, gamma, n) ** 4,
    }
    if policy is OutcomePolicy.CONDITIONED:
        cond = conditioned_outcome or OutcomeTuple(0, 0, 0, 0)
        cond.validate(n)
        diagnostics["conditioned_outcome"] = cond.as_tuple()
        diagnostics["outcome_probability"] = 1.0 / n**4

    # a copy, so a kept result does not hold the probe's block alive
    return NoisyRunResult(rhos=_read_only(out[:2].copy()), diagnostics=diagnostics)


def run_fidelities(
    run: NoisyRunResult, alice: PhaseVector, bob: PhaseVector
) -> tuple[float, float]:
    """(A1, B2) fidelities of a run: A1 against Bob's target, B2 against Alice's."""
    return (
        fidelity_density(_TARGETS[bob].state, run.rho_a1),
        fidelity_density(_TARGETS[alice].state, run.rho_b2),
    )


# ---------------------------------------------------------------------------
# closed-form reference evaluators


def paper_fidelity_dephasing(gamma: float) -> float:
    """Quoted closed form for the dephasing channel at N=4.

    Reference value only: exact mixture evolution does not reduce to this
    expression away from gamma = 0 (see compare_paper_vs_exact).
    """
    gamma = _check_gamma(gamma)
    q = math.sqrt(1 - gamma)
    return (
        math.sqrt((1 + 6 * q + 9 * (1 - gamma)) ** 2 + 6 * gamma * (1 + 3 * q) ** 2 + 9 * gamma**2)
        / 16.0
    )


def paper_fidelity_phaseflip_equatorial(gamma: float) -> float:
    """Quoted closed form 1 - 3 gamma / 4 for the zero-phase target at N=4."""
    gamma = _check_gamma(gamma)
    return 1.0 - 3.0 * gamma / 4.0


def closed_form_fidelity(
    kind: NoiseKind, phases: PhaseVector, gamma: float
) -> Optional[float]:
    """The quoted closed form for this channel/target, when one exists."""
    zero_phases = all(p == 0.0 for p in phases.phases)
    if kind is NoiseKind.DEPHASING and phases.dim == 4:
        return paper_fidelity_dephasing(gamma)
    if kind is NoiseKind.QUDIT_PHASE_FLIP and zero_phases and phases.dim == 4:
        return paper_fidelity_phaseflip_equatorial(gamma)
    if kind is NoiseKind.QUDIT_FLIP and zero_phases:
        return 1.0
    return None


@dataclass(frozen=True)
class ComparisonRow:
    """One gamma of `compare_paper_vs_exact`."""

    gamma: float
    exact_a1: float
    exact_b2: float
    paper: Optional[float]
    deviation: Optional[float]
    flagged: bool


@dataclass(frozen=True)
class ComparisonReport:
    noise: NoiseKind
    rows: tuple[ComparisonRow, ...]


def compare_paper_vs_exact(
    noise: NoiseKind,
    alice: PhaseVector,
    bob: PhaseVector,
    gammas,
) -> ComparisonReport:
    """Tabulate exact fidelity against the quoted closed forms.

    N is the targets' dimension; targets of different dimensions raise
    ValueError. A row is flagged when its exact A1 fidelity departs from
    the closed form by more than 1e-6. Agreement is an empirical finding.
    """
    rows = []
    for gamma in gammas:
        run = noisy_protocol_run(alice, bob, alice.dim, noise, gamma)
        exact_a1, exact_b2 = run_fidelities(run, alice, bob)
        paper = closed_form_fidelity(noise, bob, gamma)
        deviation = None if paper is None else abs(exact_a1 - paper)
        flagged = deviation is not None and deviation > 1e-6
        rows.append(ComparisonRow(float(gamma), exact_a1, exact_b2, paper, deviation, flagged))
    return ComparisonReport(noise=noise, rows=tuple(rows))
