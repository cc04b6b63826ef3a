"""Noise channels on the distributed qudits and exact noisy-run evaluation.

Three channels are modeled: cyclic basis shifts (qudit flip), diagonal
coherence damping (dephasing), and combined shift-plus-phase errors
(qudit phase flip). Noise acts only on the four particles that travel:
B1 and C1 out of the first GHZ resource, A2 and C2 out of the second;
A1 and B2 stay with their preparers and are ideal.

The exact evaluator works per GHZ leg: noise on B1 and C1 reaches only
A1, and noise on A2 and C2 reaches only B2. Each leg's kept qudit is an
elementwise product of one factor per measured slot, D T(B) D+, with B the
outer product of the measured bra, D the correction phases and
T(B) = sum_i K_i^T B K_i* the channel's twirl. The correction cancels the
outcome phase of the bra, so each slot has one corrected row, whatever the
outcome: every outcome tuple gives the same outputs with probability 1/N^4.
Each twirl has a closed form, a gamma-weighted sum of gamma-free pieces
cached per target pair, so a run costs O(N^2) and is exact over every Kraus
history without enumerating them. The closed-form fidelity expressions
quoted alongside are reference evaluators only; agreement with the exact
simulation is reported, never assumed.

The public builders return each channel use as a `KrausSet` from one raw
(K, N, N) stack, filled by fancy indexing and checked for completeness in
one matmul.
"""

from __future__ import annotations

import functools
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
    A2,
    B1,
    C1,
    C2,
    OutcomeTuple,
    PhaseVector,
    _equatorial_amplitudes,
    _read_only,
    equatorial_state,
    phase_table,
)

# register positions whose carriers pass through a noisy channel
DISTRIBUTED_SITES = (B1, C1, A2, C2)


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


def _kraus_stack(kind: NoiseKind, gamma: float, n: int) -> np.ndarray:
    """The (K, N, N) Kraus operators of one channel use, checked for completeness.

    Dephasing: diag(1, sqrt(1-g), ..., sqrt(1-g)), then sqrt(g) |s><s| for
    s = 1..N-1. Shift kinds: sqrt(1-(N-1)g/N) times the identity, then
    c sum_j e^{i 2pi ja/N} |j+b><j| with c = sqrt(g/N), a = 0, b = 1..N-1
    (flip) or c = sqrt(g/(N(N-1))), a, b = 1..N-1, a outer (shift and phase).
    Raises ValueError when sum_k K_k+ K_k departs from the identity by more
    than ATOL.
    """
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
    rows = stack.reshape(-1, n)
    dev = float(np.max(np.abs(rows.conj().T @ rows - np.eye(n))))
    if not dev <= ATOL:
        raise ValueError(f"Kraus set is not complete (deviation {dev:.3e})")
    return stack


def qudit_flip_kraus(gamma: float, n: int = 4) -> KrausSet:
    """Cyclic-shift errors: identity with weight 1-(N-1)g/N, each shift with g/N."""
    return kraus_for(NoiseKind.QUDIT_FLIP, gamma, n)


def dephasing_kraus(gamma: float, n: int = 4) -> KrausSet:
    """Diagonal damping of the |j>0> amplitudes plus projective residues."""
    return kraus_for(NoiseKind.DEPHASING, gamma, n)


def phase_flip_kraus(gamma: float, n: int = 4) -> KrausSet:
    """Combined shift-and-phase errors.

    Besides the identity (weight 1-(N-1)g/N) only operators with BOTH a
    nonzero phase index and a nonzero shift index appear, each with weight
    g/(N(N-1)); that zero pattern is the unique completeness-consistent one.
    """
    return kraus_for(NoiseKind.QUDIT_PHASE_FLIP, gamma, n)


def kraus_for(kind: NoiseKind, gamma: float, n: int = 4) -> KrausSet:
    """The validated channel: _kraus_stack wrapped into Operators."""
    return KrausSet(n, tuple(Operator(op) for op in _kraus_stack(kind, gamma, n)))


# ---------------------------------------------------------------------------
# exact noisy protocol evaluation


@dataclass(frozen=True)
class NoisyRunResult:
    rho_a1: np.ndarray
    rho_b2: np.ndarray
    diagnostics: dict

    @property
    def a1_ensemble(self) -> BranchEnsemble:
        """Pure-branch view of rho_a1 (eigendecomposition)."""
        return ensemble_from_density(self.rho_a1, (self.rho_a1.shape[0],))

    @property
    def b2_ensemble(self) -> BranchEnsemble:
        """Pure-branch view of rho_b2 (eigendecomposition)."""
        return ensemble_from_density(self.rho_b2, (self.rho_b2.shape[0],))


def _twirl(kind: NoiseKind, gamma: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """T(B) = sum_i K_i^T B K_i* as M * B + circulant(lags * c), c[d] = sum_j B[j, j+d]:
    so circ(B)[a, q] = sum_b B[a+b, q+b] = c[q-a] and tr(B) = c[0]. Qudit flip:
    (w0-w) B + w circ(B); shift-and-phase: w0 B + w (N tr(B) I - circ(B) - N diag(B) + B);
    dephasing: (d d^T) * B + g diag(B) off entry 0. Here w0 = 1-(N-1)g/N, w = g/N
    (flip) or g/(N(N-1)), and d = (1, sqrt(1-g), ..., sqrt(1-g)).
    """
    if kind is NoiseKind.DEPHASING:
        weights = np.full((n, n), 1 - gamma)
        weights[0] = weights[:, 0] = np.sqrt(1 - gamma)
        np.fill_diagonal(weights, 1.0)  # (1-g) + g: populations are kept
        return weights, np.zeros(n)
    w0 = 1 - (n - 1) * gamma / n
    if kind is NoiseKind.QUDIT_FLIP:
        return np.full((n, n), w0 - gamma / n), np.full(n, gamma / n)
    w = gamma / (n * (n - 1))
    weights = np.full((n, n), w0 + w)
    np.fill_diagonal(weights, w0 + w - n * w)
    lags = np.full(n, -w)
    lags[0] = n * w - w
    return weights, lags


@functools.lru_cache(maxsize=256)
def _twirl_pieces(alice: PhaseVector, bob: PhaseVector, n: int) -> tuple[np.ndarray, ...]:
    """Gamma-free pieces of one target pair: (x x+, g, wrap) for the measured
    slots (Fourier, Bob's basis, Alice's basis). The corrected bra U_s <r_s| of
    a slot is the same row x for every outcome s, the flat state's or the
    target's amplitudes, so D B D+ = x x+ and D circ(B) D+ = g[wrap], with
    g[d] = sum_j x[j] conj(x[j+d]) and wrap[a, q] = (q-a) mod N.
    """
    x = np.array([_equatorial_amplitudes(p) for p in (PhaseVector.zero(n), bob, alice)])
    wrap = -np.subtract.outer(np.arange(n), np.arange(n)) % n
    # g_neg[d] = conj(g[d]) = g[-d]; the mean of both makes that hold exactly
    g_neg = (x[:, None, :] @ x.conj()[:, wrap.T])[:, 0, :]
    g = (g_neg.conj() + g_neg[:, wrap[:, 0]]) / 2
    outer = _hermitian(x[:, :, None] * x[:, None, :].conj())
    return tuple(_read_only(a) for a in (outer, g, wrap))


def _hermitian(a: np.ndarray) -> np.ndarray:
    """(A + A+)/2: a fused multiply-add can leave A+ an ulp away from A."""
    return (a + np.swapaxes(a, -1, -2).conj()) / 2


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

    Each output is evaluated on its own GHZ leg, exactly over all num_ops**4
    Kraus histories of the four channel uses. The corrections make every
    outcome tuple yield the same outputs with probability 1/N^4, so the
    averaged policy (outcome record mixed as classical) and the conditioned
    one (one tuple post-selected, all zeros by default) share them.
    """
    weights, lags = _twirl(noise, _check_gamma(gamma), n)
    # completeness of the Kraus set is T(I) = I; circ(I) = N I
    if not (dev := float(np.abs(weights.diagonal() + (n * lags[0] - 1)).max())) <= ATOL:
        raise ValueError(f"Kraus set is not complete (deviation {dev:.3e})")
    outer, g, wrap = _twirl_pieces(alice, bob, n)
    # A1 is Bob's slot (B1) times the Fourier one (C1), B2 Alice's (A2) times it (C2)
    factors = weights * outer + (lags * g)[..., wrap]
    rhos = factors[1:] * factors[0] * n

    diagnostics = {
        "noise": noise.value,
        "gamma": gamma,
        "policy": policy.value,
        "branch_count": _kraus_count(noise, gamma, n) ** len(DISTRIBUTED_SITES),
        **_invariant_residuals(rhos),
    }
    if policy is OutcomePolicy.CONDITIONED:
        cond = conditioned_outcome or OutcomeTuple(0, 0, 0, 0)
        cond.validate(n)
        diagnostics["conditioned_outcome"] = cond.as_tuple()
        diagnostics["outcome_probability"] = 1.0 / n**4

    return NoisyRunResult(rho_a1=rhos[0], rho_b2=rhos[1], diagnostics=diagnostics)


def run_fidelities(
    run: NoisyRunResult, alice: PhaseVector, bob: PhaseVector
) -> tuple[float, float]:
    """(A1, B2) fidelities of a run: A1 against Bob's target, B2 against Alice's."""
    return (
        fidelity_density(equatorial_state(bob), run.rho_a1),
        fidelity_density(equatorial_state(alice), run.rho_b2),
    )


def exact_fidelities(
    alice: PhaseVector,
    bob: PhaseVector,
    n: int,
    noise: NoiseKind,
    gamma: float,
    policy: OutcomePolicy = OutcomePolicy.AVERAGED,
) -> tuple[float, float]:
    """Exact (A1, B2) fidelities against the two targets."""
    run = noisy_protocol_run(alice, bob, n, noise, gamma, policy)
    return run_fidelities(run, alice, bob)


# ---------------------------------------------------------------------------
# closed-form reference evaluators


def paper_fidelity_dephasing(gamma: float) -> float:
    """Quoted closed form for the dephasing channel at N=4.

    Reference value only: exact mixture evolution does not reduce to this
    expression away from gamma = 0 (see compare_paper_vs_exact).
    """
    gamma = _check_gamma(gamma)
    q = np.sqrt(1 - gamma)
    return float(
        np.sqrt((1 + 6 * q + 9 * (1 - gamma)) ** 2 + 6 * gamma * (1 + 3 * q) ** 2 + 9 * gamma**2)
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
    gamma: float
    exact_a1: float
    exact_b2: float
    paper: Optional[float]
    deviation: Optional[float]
    flagged: bool
    a1_branches: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class ComparisonReport:
    noise: NoiseKind
    rows: tuple[ComparisonRow, ...]

    @property
    def flagged_rows(self) -> tuple[ComparisonRow, ...]:
        return tuple(r for r in self.rows if r.flagged)


def compare_paper_vs_exact(
    noise: NoiseKind,
    alice: PhaseVector,
    bob: PhaseVector,
    gammas,
    n: int = 4,
    flag_tol: float = 1e-6,
) -> ComparisonReport:
    """Tabulate exact ensemble fidelity against the quoted closed forms.

    Rows whose exact A1 fidelity departs from the closed form by more than
    flag_tol carry the branch-level breakdown (weight, squared overlap with
    the target) of the A1 ensemble. Agreement is an empirical finding.
    """
    target_a1 = equatorial_state(bob)
    rows = []
    for gamma in gammas:
        run = noisy_protocol_run(alice, bob, n, noise, gamma)
        exact_a1, exact_b2 = run_fidelities(run, alice, bob)
        paper = closed_form_fidelity(noise, bob, gamma)
        deviation = None if paper is None else abs(exact_a1 - paper)
        flagged = deviation is not None and deviation > flag_tol
        breakdown = ()
        if flagged:
            breakdown = tuple(
                (w, abs(target_a1.overlap(s)) ** 2) for w, s in run.a1_ensemble.branches
            )
        rows.append(
            ComparisonRow(
                gamma=float(gamma),
                exact_a1=exact_a1,
                exact_b2=exact_b2,
                paper=paper,
                deviation=deviation,
                flagged=flagged,
                a1_branches=breakdown,
            )
        )
    return ComparisonReport(noise=noise, rows=tuple(rows))
