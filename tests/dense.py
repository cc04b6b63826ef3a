"""Dense reference constructions that only the tests use.

The package computes without these: `ghz_via_cnot` permutes indices
instead of applying the N^2 x N^2 controlled shift, `compose_network` and
`reck_decompose` update two columns per element instead of multiplying
element matrices, and the exact noisy evaluator sends each target
through its leg's channel in closed form instead of splitting branches
one Kraus operator at a time. `ensemble_from_density` decomposes a whole
stack of density matrices with one batched `eigh` and checks the
eigenvectors as arrays; `per_leg_ensemble` is the one-matrix-at-a-time
construction it replaced. `ensemble_of` builds a `BranchEnsemble` from
`(weight, StateVector)` pairs. `KrausSet` sums its K products E+ E
with one batched matmul; `completeness_deviation` is the one-operator-at-
a-time loop it replaced. The engine keeps each leg outcome's corrected
output once per target; `corrected_result` corrects kept diagonals the
way a run did before, for the oracles that check those entries. The
oracles that check those shortcuts build the dense objects here, from the
package's own checked types.
"""

import numpy as np

from bcrsp.core import (
    _PRUNE_EPS,
    BranchEnsemble,
    KrausSet,
    Operator,
    StateVector,
    apply_on,
    same_ray,
)
from bcrsp.optics import BeamSplitter, NetworkElement, PhaseShifter
from bcrsp.protocol import (
    CorrectionRule,
    ProtocolResult,
    _check_dimension,
    equatorial_state,
    phase_table,
)


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis state |index> of a single qudit."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector((dim,), amps)


def ensemble_of(pairs) -> BranchEnsemble:
    """The ensemble of `(weight, StateVector)` pairs on one subsystem layout."""
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("ensemble needs at least one branch")
    dims = pairs[0][1].dims
    if any(s.dims != dims for _, s in pairs):
        raise ValueError("branches live on different subsystem layouts")
    weights = [w for w, _ in pairs]
    return BranchEnsemble(weights, np.array([s.amplitudes for _, s in pairs]), dims)


def apply_kraus(ens: BranchEnsemble, kraus: KrausSet, target: int) -> BranchEnsemble:
    """Push an ensemble through a channel acting on one subsystem.

    Every branch splits into one branch per Kraus operator, weighted by the
    squared norm of the (unnormalized) image; zero-weight branches are
    pruned. Total weight is preserved by channel completeness.
    """
    out: list[tuple[float, StateVector]] = []
    for weight, state in ens.branches:
        if state.dims[target] != kraus.dim:
            raise ValueError(
                f"channel dim {kraus.dim} != subsystem dim {state.dims[target]}"
            )
        for op in kraus.operators:
            image = apply_on(op, _unnormalized(state), target)
            norm_sq = float(np.real(np.vdot(image.amplitudes, image.amplitudes)))
            w = weight * norm_sq
            if w <= _PRUNE_EPS:
                continue
            out.append(
                (w, StateVector(state.dims, image.amplitudes / np.sqrt(norm_sq)))
            )
    # completeness of the set guarantees the weights still sum to one
    return ensemble_of(tuple(out))


def completeness_deviation(ops) -> float:
    """max |sum_l E_l+ E_l - I| over entries, one operator at a time."""
    dim = ops[0].entries.shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for op in ops:
        acc += op.entries.conj().T @ op.entries
    return float(np.max(np.abs(acc - np.eye(dim))))


def corrected_result(alice, bob, outcome, legs, probability: float) -> ProtocolResult:
    """The run whose kept diagonals are `legs` = [A1, B2]: A1 corrected by
    U_{m+n} and checked against Bob's target, B2 by U_{k+l} against Alice's.

    Each correction is the product with one row of `phase_table`, on the
    raw arrays, and recovery is `same_ray` with the target's amplitudes.
    """
    n = alice.dim
    rule = CorrectionRule((outcome.m + outcome.n) % n, (outcome.k + outcome.l) % n)
    alice_final = phase_table(n)[rule.a1_index] * legs[0]
    bob_final = phase_table(n)[rule.b2_index] * legs[1]
    recovered = (
        same_ray(alice_final, equatorial_state(bob).amplitudes),
        same_ray(bob_final, equatorial_state(alice).amplitudes),
    )
    return ProtocolResult(
        outcome, probability, rule, legs[0], legs[1], alice_final, bob_final, recovered
    )


def per_leg_ensemble(rho: np.ndarray, dims: tuple[int, ...]) -> BranchEnsemble:
    """One density matrix's eigen-view built branch by branch: one `eigh`,
    every column rescaled to unit norm, one `StateVector` per eigenvalue
    of at least 1e-14 (largest first), weights renormalized to sum to one."""
    vals, vecs = np.linalg.eigh(rho)
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    pairs = [
        (float(w), StateVector(dims, v))
        for w, v in zip(vals[::-1], vecs.T[::-1])
        if w >= 1e-14
    ]
    total = sum(w for w, _ in pairs)
    if total <= 0:
        raise ValueError("density matrix has no positive weight")
    return ensemble_of(tuple((w / total, s) for w, s in pairs))


def _unnormalized(state: StateVector) -> StateVector:
    return StateVector(state.dims, state.amplitudes, normalized=False)


def cnot_gate(n: int) -> Operator:
    """Controlled cyclic shift |i, j> -> |i, (i + j) mod n>."""
    _check_dimension(n)
    mat = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i * n + (i + j) % n, i * n + j] = 1.0
    return Operator(mat, unitary=True)


def bs_matrix(bs: BeamSplitter, n: int) -> Operator:
    """The coupler embedded in an n-mode identity."""
    if bs.m >= n:
        raise ValueError(f"mode {bs.m} out of range for {n} modes")
    mat = np.eye(n, dtype=complex)
    ph = np.exp(1j * bs.phi)
    s, c = np.sin(bs.omega), np.cos(bs.omega)
    mat[bs.n, bs.n] = ph * s
    mat[bs.n, bs.m] = ph * c
    mat[bs.m, bs.n] = c
    mat[bs.m, bs.m] = -s
    return Operator(mat)


def ps_matrix(ps: PhaseShifter, n: int) -> Operator:
    if not 0 <= ps.mode < n:
        raise ValueError(f"mode {ps.mode} out of range for {n} modes")
    diag = np.ones(n, dtype=complex)
    diag[ps.mode] = np.exp(1j * ps.theta)
    return Operator(np.diag(diag))


def element_matrix(el: NetworkElement, n: int) -> np.ndarray:
    if isinstance(el, BeamSplitter):
        return bs_matrix(el, n).entries
    return ps_matrix(el, n).entries
