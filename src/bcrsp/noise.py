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
T(B) = sum_i K_i^T B K_i* the channel's twirl. Each twirl has a closed form,
a gamma-weighted sum of gamma-free pieces cached per target pair, so a run
costs O(N^2) per gamma and is exact over every Kraus history without
enumerating them. The closed-form fidelity expressions quoted alongside are
reference evaluators only; agreement with the exact simulation is reported,
never assumed.

The public builders return each channel use as a `KrausSet` from one raw
(K, N, N) stack of gamma-free shapes (shifts, Weyl operators, diagonal
projectors) cached per dimension and checked for completeness in one matmul.
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
    """Gamma-free pieces of one target pair: (x, g, x x+ and g summed over
    outcomes, wrap). Row x[r, s] = U_s <r_s| is slot r's bra of outcome s times
    the correction (slots: Fourier, Bob's, Alice's basis), so D B D+ = x x+ and
    D circ(B) D+ = g[s, wrap], with g[s, d] = sum_j x[s, j] conj(x[s, j+d]) and
    wrap[a, q] = (q-a) mod N.
    """
    x = phase_table(n) * np.array([_fourier_bras(n), _sender_bras(bob), _sender_bras(alice)])
    wrap = -np.subtract.outer(np.arange(n), np.arange(n)) % n
    # g_neg[d] = conj(g[d]) = g[-d]; the mean of both makes that hold exactly
    g_neg = (x[..., None, :] @ x.conj()[..., wrap.T])[..., 0, :]
    g = (g_neg.conj() + g_neg[..., wrap[:, 0]]) / 2
    outer_sum = _hermitian(np.swapaxes(x, -1, -2) @ x.conj())
    return tuple(_read_only(a) for a in (x, g, outer_sum, g.sum(axis=1), wrap))


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
    Kraus histories of the four channel uses. The averaged policy mixes over the
    outcome record as classical; the conditioned policy post-selects one outcome
    tuple (all zeros by default) and renormalizes each output.
    """
    weights, lags = _twirl(noise, _check_gamma(gamma), n)
    # completeness of the Kraus set is T(I) = I; circ(I) = N I
    if (dev := float(np.abs(weights.diagonal() + (n * lags[0] - 1)).max())) > ATOL:
        raise ValueError(f"Kraus set is not complete (deviation {dev:.3e})")
    x, g, outer_sum, g_sum, wrap = _twirl_pieces(alice, bob, n)

    if policy is OutcomePolicy.CONDITIONED:
        cond = conditioned_outcome or OutcomeTuple(0, 0, 0, 0)
        cond.validate(n)
        # A1: B1 (outcome n) and C1 (m); B2: A2 (outcome l) and C2 (k)
        slots = ([1, 2, 0, 0], [cond.n, cond.l, cond.m, cond.k])
        rows = x[slots]
        outer = _hermitian(rows[:, :, None] * rows[:, None, :].conj())
        factors = weights * outer + (lags * g[slots])[..., wrap]
        rhos = factors[:2] * factors[2:] / n
        p = rhos.trace(axis1=1, axis2=2).real
        probability = float(p[0] * p[1])
        if probability <= 1e-30:
            raise ValueError(f"conditioning outcome {cond.as_tuple()} has zero probability")
        rhos /= p[:, None, None]
    else:
        sums = weights * outer_sum + (lags * g_sum)[..., wrap]
        rhos = sums[1:] * sums[0] / n

    count = 1 if gamma == 0 else n * n - 2 * n + 2 if noise is NoiseKind.QUDIT_PHASE_FLIP else n
    diagnostics = {
        "noise": noise.value,
        "gamma": gamma,
        "policy": policy.value,
        "branch_count": count ** len(DISTRIBUTED_SITES),
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
