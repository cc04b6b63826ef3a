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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
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
    equatorial_state,
    fourier_basis,
    phase_table,
    sender_basis,
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


def qudit_flip_kraus(gamma: float, n: int = 4) -> KrausSet:
    """Cyclic-shift errors: identity with weight 1-(N-1)g/N, each shift with g/N."""
    gamma = _check_gamma(gamma)
    ops = [Operator(np.sqrt(1 - (n - 1) * gamma / n) * np.eye(n, dtype=complex))]
    if gamma > 0:
        coef = np.sqrt(gamma / n)
        ops.extend(Operator(coef * _shift_matrix(n, l)) for l in range(1, n))
    return KrausSet(n, tuple(ops))


def dephasing_kraus(gamma: float, n: int = 4) -> KrausSet:
    """Diagonal damping of the |j>0> amplitudes plus projective residues."""
    gamma = _check_gamma(gamma)
    diag = np.concatenate(([1.0], np.full(n - 1, np.sqrt(1 - gamma))))
    ops = [Operator(np.diag(diag).astype(complex))]
    if gamma > 0:
        for s in range(1, n):
            mat = np.zeros((n, n), dtype=complex)
            mat[s, s] = np.sqrt(gamma)
            ops.append(Operator(mat))
    return KrausSet(n, tuple(ops))


def phase_flip_kraus(gamma: float, n: int = 4) -> KrausSet:
    """Combined shift-and-phase errors.

    Besides the identity (weight 1-(N-1)g/N) only operators with BOTH a
    nonzero phase index and a nonzero shift index appear, each with weight
    g/(N(N-1)); that zero pattern is the unique completeness-consistent one.
    """
    gamma = _check_gamma(gamma)
    ops = [Operator(np.sqrt(1 - (n - 1) * gamma / n) * np.eye(n, dtype=complex))]
    if gamma > 0:
        coef = np.sqrt(gamma / (n * (n - 1)))
        for phases in phase_table(n)[1:]:
            for s2 in range(1, n):
                ops.append(Operator(coef * _shift_matrix(n, s2, phases)))
    return KrausSet(n, tuple(ops))


_KRAUS_BUILDERS = {
    NoiseKind.QUDIT_FLIP: qudit_flip_kraus,
    NoiseKind.DEPHASING: dephasing_kraus,
    NoiseKind.QUDIT_PHASE_FLIP: phase_flip_kraus,
}


def kraus_for(kind: NoiseKind, gamma: float, n: int = 4) -> KrausSet:
    return _KRAUS_BUILDERS[kind](gamma, n)


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
    """F[s, a, q] = sum_i w[i, s, a] conj(w[i, s, q]), w[i, s] = U_s (<r_s| K_i)^T.

    rows holds the conjugated basis vectors <r_s| of one measured slot and
    ops the Kraus operators of the channel on that slot. For the GHZ leg
    sum_a |aaa>/sqrt(N), the kept qudit after outcomes (s, t) on its two
    measured slots and the correction U_{s+t} is F_s * G_t / N, elementwise:
    U_{s+t} = U_s U_t is diagonal, so conjugating by it multiplies entry
    (a, q) by a phase that splits between the two slots.
    """
    w = phase_table(rows.shape[0]) * (rows @ ops)
    return np.einsum("isa,isq->saq", w, w.conj())


def _invariant_residuals(rho: np.ndarray, name: str) -> dict:
    return {
        f"hermiticity_{name}": float(np.max(np.abs(rho - rho.conj().T))),
        f"min_eigenvalue_{name}": float(np.min(np.linalg.eigvalsh(rho))),
        f"trace_error_{name}": float(abs(np.trace(rho) - 1.0)),
    }


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
    kraus = kraus_for(noise, gamma, n)
    ops = np.array([op.entries for op in kraus.operators])
    four = _corrected_factors(fourier_basis(n).matrix().conj(), ops)
    bob_side = _corrected_factors(sender_basis(bob).matrix().conj(), ops)
    alice_side = _corrected_factors(sender_basis(alice).matrix().conj(), ops)

    if policy is OutcomePolicy.CONDITIONED:
        cond = conditioned_outcome or OutcomeTuple(0, 0, 0, 0)
        cond.validate(n)
        # A1: B1 (Bob's basis, n) and C1 (m); B2: A2 (Alice's basis, l) and C2 (k)
        rho_a1 = bob_side[cond.n] * four[cond.m] / n
        rho_b2 = alice_side[cond.l] * four[cond.k] / n
        p_a1 = float(np.real(np.trace(rho_a1)))
        p_b2 = float(np.real(np.trace(rho_b2)))
        probability = p_a1 * p_b2
        if probability <= 1e-30:
            raise ValueError(
                f"conditioning outcome {cond.as_tuple()} has zero probability"
            )
        rho_a1 /= p_a1
        rho_b2 /= p_b2
    else:
        rho_a1 = bob_side.sum(axis=0) * four.sum(axis=0) / n
        rho_b2 = alice_side.sum(axis=0) * four.sum(axis=0) / n

    diagnostics = {
        "noise": noise.value,
        "gamma": gamma,
        "policy": policy.value,
        "branch_count": len(kraus.operators) ** len(DISTRIBUTED_SITES),
        "trace_a1": float(np.real(np.trace(rho_a1))),
        "trace_b2": float(np.real(np.trace(rho_b2))),
        **_invariant_residuals(rho_a1, "a1"),
        **_invariant_residuals(rho_b2, "b2"),
    }
    if policy is OutcomePolicy.CONDITIONED:
        diagnostics["conditioned_outcome"] = cond.as_tuple()
        diagnostics["outcome_probability"] = probability

    return NoisyRunResult(rho_a1=rho_a1, rho_b2=rho_b2, diagnostics=diagnostics)


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
    f_a1 = fidelity_density(equatorial_state(bob), run.rho_a1)
    f_b2 = fidelity_density(equatorial_state(alice), run.rho_b2)
    return f_a1, f_b2


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
        exact_a1 = fidelity_density(target_a1, run.rho_a1)
        exact_b2 = fidelity_density(equatorial_state(alice), run.rho_b2)
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
