"""Noise channels on the distributed qudits and exact noisy-run evaluation.

Three channels are modeled: cyclic basis shifts (qudit flip), diagonal
coherence damping (dephasing), and combined shift-plus-phase errors
(qudit phase flip). Noise acts only on the four particles that travel:
B1 and C1 out of the first GHZ resource, A2 and C2 out of the second;
A1 and B2 stay with their preparers and are ideal.

The exact evaluator works per GHZ leg: noise on B1 and C1 reaches only
A1, and noise on A2 and C2 reaches only B2. Each leg's kept-qudit density
operator, after both measurements and the feed-forward correction, is an
elementwise product of one factor per measured slot, each summed over that
slot's Kraus operators. The result is exact over every Kraus history of
the four channel uses without enumerating them. The closed-form
fidelity expressions quoted alongside are kept as reference evaluators
only; agreement with the exact simulation is reported, never assumed.

Each channel use is one raw (K, N, N) Kraus stack: gamma-free shapes
(shifts, Weyl operators, diagonal projectors), cached per dimension, scaled
per call and checked for completeness with one matmul. The public builders
wrap that stack into a validated `KrausSet`; the evaluator works on it
directly, with the cached conjugated basis rows of `protocol`, and takes its
invariant residuals in one stacked pass over both outputs.
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
    _fourier_bras,
    _read_only,
    _sender_bras,
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


def _shift_matrix(n: int, shift: int, phases: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_j phase_j |j+shift mod n><j|."""
    mat = np.zeros((n, n), dtype=complex)
    col = np.arange(n)
    mat[(col + shift) % n, col] = 1.0 if phases is None else phases
    return mat


# Gamma-free operator shapes, cached per dimension; the Kraus stack of one
# channel use scales them, so the cache never depends on gamma.


@functools.lru_cache(maxsize=64)
def _shift_shapes(n: int) -> np.ndarray:
    """X^s = sum_j |j+s><j| for s = 0..N-1; X^0 is the identity."""
    return _read_only(np.array([_shift_matrix(n, s) for s in range(n)]))


@functools.lru_cache(maxsize=64)
def _weyl_shapes(n: int) -> np.ndarray:
    """The identity, then Z^a X^b for a, b = 1..N-1 (a outer, b inner)."""
    ops = [np.eye(n, dtype=complex)]
    ops.extend(
        _shift_matrix(n, b, phases) for phases in phase_table(n)[1:] for b in range(1, n)
    )
    return _read_only(np.array(ops))


@functools.lru_cache(maxsize=64)
def _projector_shapes(n: int) -> np.ndarray:
    """Diagonal projectors |s><s| for s = 0..N-1."""
    shapes = np.zeros((n, n, n), dtype=complex)
    diag = np.arange(n)
    shapes[diag, diag, diag] = 1.0
    return _read_only(shapes)


def _shift_stack(shapes: np.ndarray, weight: float, gamma: float, n: int) -> np.ndarray:
    """sqrt(1-(N-1)g/N) times the identity shape, then `weight` times the rest."""
    weights = np.full(len(shapes) if gamma > 0 else 1, weight)
    weights[0] = np.sqrt(1 - (n - 1) * gamma / n)
    return weights[:, None, None] * shapes[: len(weights)]


def _dephasing_stack(gamma: float, n: int) -> np.ndarray:
    """diag(1, sqrt(1-g), ..., sqrt(1-g)), then sqrt(g) |s><s| for s = 1..N-1."""
    weights = np.zeros((n, n))
    weights[0] = np.concatenate(([1.0], np.full(n - 1, np.sqrt(1 - gamma))))
    weights[1:, 1:] = np.sqrt(gamma) * np.eye(n - 1)
    return np.tensordot(weights[: n if gamma > 0 else 1], _projector_shapes(n), axes=1)


def _kraus_stack(kind: NoiseKind, gamma: float, n: int) -> np.ndarray:
    """The (K, N, N) Kraus operators of one channel use, checked for completeness.

    Only the identity (or, for dephasing, the damping diagonal) remains at
    gamma = 0, so K = 1 there. Raises ValueError when sum_k K_k+ K_k departs
    from the identity by more than ATOL.
    """
    gamma = _check_gamma(gamma)
    if kind is NoiseKind.DEPHASING:
        stack = _dephasing_stack(gamma, n)
    elif kind is NoiseKind.QUDIT_FLIP:
        stack = _shift_stack(_shift_shapes(n), np.sqrt(gamma / n), gamma, n)
    else:
        stack = _shift_stack(_weyl_shapes(n), np.sqrt(gamma / (n * (n - 1))), gamma, n)
    rows = stack.reshape(-1, n)
    dev = float(np.max(np.abs(rows.conj().T @ rows - np.eye(n))))
    if dev > ATOL:
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


def _corrected_factors(rows: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """F[r, s, a, q] = sum_i w[r, i, s, a] conj(w[r, i, s, q]).

    Here w[r, i, s] = U_s (<r_s| K_i)^T, rows[r] holds the conjugated basis
    vectors <r_s| of measured slot r, and ops the Kraus operators of the
    channel on every slot. For the GHZ leg
    sum_a |aaa>/sqrt(N), the kept qudit after outcomes (s, t) on its two
    measured slots and the correction U_{s+t} is F_s * G_t / N, elementwise:
    U_{s+t} = U_s U_t is diagonal, so conjugating by it multiplies entry
    (a, q) by a phase that splits between the two slots.
    """
    w = phase_table(rows.shape[-1]) * (rows[:, None] @ ops)
    return np.einsum("risa,risq->rsaq", w, w.conj())


def _invariant_residuals(rhos: np.ndarray) -> dict:
    """Trace, hermiticity, smallest eigenvalue and trace error of the stacked
    (A1, B2) outputs, one numpy call each for both legs."""
    traces = np.trace(rhos, axis1=1, axis2=2)
    hermiticity = np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1)), axis=(1, 2))
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

    The two GHZ legs never interact: noise on B1 and C1 reaches only A1, and
    noise on A2 and C2 reaches only B2, so each output is evaluated on its
    own leg. The result is exact over all num_ops**4 Kraus histories of the
    four channel uses without enumerating them. Under the averaged policy
    the outcome record is treated as classical and mixed over; under the
    conditioned policy a single outcome tuple (all zeros by default) is
    post-selected and each output renormalized.
    """
    ops = _kraus_stack(noise, gamma, n)
    # measured slots: C1 and C2 (Fourier basis), B1 (Bob's basis), A2 (Alice's basis)
    rows = np.stack([_fourier_bras(n), _sender_bras(bob), _sender_bras(alice)])
    factors = _corrected_factors(rows, ops)

    if policy is OutcomePolicy.CONDITIONED:
        cond = conditioned_outcome or OutcomeTuple(0, 0, 0, 0)
        cond.validate(n)
        # A1: B1 (outcome n) and C1 (m); B2: A2 (outcome l) and C2 (k)
        rhos = factors[[1, 2], [cond.n, cond.l]] * factors[0, [cond.m, cond.k]] / n
        p = np.trace(rhos, axis1=1, axis2=2).real
        probability = float(p[0] * p[1])
        if probability <= 1e-30:
            raise ValueError(
                f"conditioning outcome {cond.as_tuple()} has zero probability"
            )
        rhos /= p[:, None, None]
    else:
        sums = factors.sum(axis=1)
        rhos = sums[1:] * sums[0] / n

    diagnostics = {
        "noise": noise.value,
        "gamma": gamma,
        "policy": policy.value,
        "branch_count": len(ops) ** len(DISTRIBUTED_SITES),
        **_invariant_residuals(rhos),
    }
    if policy is OutcomePolicy.CONDITIONED:
        diagnostics["conditioned_outcome"] = cond.as_tuple()
        diagnostics["outcome_probability"] = probability

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
