"""Dense linear algebra for systems of several qudits.

States are plain complex vectors tagged with the list of subsystem
dimensions; mixed states are kept exact, either as weighted lists of pure
states or as dense density matrices. A `StateVector` checks its amplitude
count and its norm (one `vdot`) on every construction, so building one is
cheap but never unchecked. The weighted-list form (`BranchEnsemble`,
`ensemble_from_density`) serves only the eigen-views of noisy results
and the branch-by-branch oracles in the tests.

The general tensor operations (`apply_on`, `project`,
`projection_probabilities`, `measure`, `reduced_density`) share one idiom:
move the target axes to the front with `np.moveaxis`, then do one matmul
against the operator or the conjugated basis rows. The protocol engine and
sessions do not need them, because a GHZ leg stays diagonal under every
slot measurement; they carry each leg as its diagonal and share only the
Born draw, `born_draw`, whose checks every sampled outcome passes. It draws
by inverting the cumulative distribution at one `rng.random()`, exactly as
`Generator.choice` does, so seeded outcomes are those of `rng.choice`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# structural checks (orthonormality, unitarity, overlap) use ATOL;
# weight and trace bookkeeping is tighter. Each check reads `not dev <= tol`,
# so a NaN deviation fails it.
ATOL = 1e-10
WEIGHT_ATOL = 1e-12

# branches whose squared norm falls below this are dropped entirely
_PRUNE_EPS = 1e-30


def _as_complex_vector(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d amplitude vector, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StateVector:
    """Pure state of one or more qudits with explicit subsystem dims."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"invalid dims {dims}")
        object.__setattr__(self, "dims", dims)
        amps = _as_complex_vector(self.amplitudes)
        if len(amps) != math.prod(dims):
            raise ValueError(
                f"amplitude length {len(amps)} does not match dims {dims}"
            )
        object.__setattr__(self, "amplitudes", amps)
        if self.normalized:
            norm = math.sqrt(np.vdot(amps, amps).real)
            if not abs(norm - 1.0) <= ATOL:
                raise ValueError(f"state is not normalized (|psi| = {norm!r})")

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (read-only)."""
        return self.amplitudes.reshape(self.dims)

    def overlap(self, other: "StateVector") -> complex:
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis state |index> of a single qudit."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector((dim,), amps)


def same_ray(a: np.ndarray, b: np.ndarray, atol: float = ATOL) -> bool:
    """Equality of normalized amplitude arrays up to a global phase."""
    return abs(abs(complex(np.vdot(a, b))) - 1.0) <= atol


def states_equal(a: StateVector, b: StateVector, atol: float = ATOL) -> bool:
    """Equality up to a global phase: | <a|b> | = 1 within atol."""
    return a.dims == b.dims and same_ray(a.amplitudes, b.amplitudes, atol)


@dataclass(frozen=True)
class Operator:
    """Complex matrix acting on one or more qudits."""

    entries: np.ndarray
    unitary: bool = False

    def __post_init__(self):
        mat = np.ascontiguousarray(self.entries, dtype=complex)
        if mat.ndim != 2:
            raise ValueError(f"operator must be a matrix, got shape {mat.shape}")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)
        if self.unitary:
            dev = unitarity_deviation(mat)
            if not dev <= ATOL:
                raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")

    @property
    def dim_out(self) -> int:
        return self.entries.shape[0]

    @property
    def dim_in(self) -> int:
        return self.entries.shape[1]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n x n unitary: QR of a complex Gaussian, phases fixed by R."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitarity_deviation(mat: np.ndarray) -> float:
    """max |U+ U - I| over entries."""
    mat = np.asarray(mat)
    return float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[1]))))


@dataclass(frozen=True)
class MeasurementBasis:
    """Ordered orthonormal family of single-qudit states."""

    dim: int
    vectors: tuple[StateVector, ...]

    def __post_init__(self):
        vecs = tuple(self.vectors)
        if len(vecs) != self.dim:
            raise ValueError(f"need {self.dim} vectors, got {len(vecs)}")
        for v in vecs:
            if v.dims != (self.dim,):
                raise ValueError(f"basis vector dims {v.dims} != ({self.dim},)")
        gram = self.matrix() @ self.matrix().conj().T
        dev = float(np.max(np.abs(gram - np.eye(self.dim))))
        if not dev <= ATOL:
            raise ValueError(f"basis is not orthonormal (deviation {dev:.3e})")
        object.__setattr__(self, "vectors", vecs)

    def matrix(self) -> np.ndarray:
        """Row k holds the coordinates of the k-th basis vector."""
        return np.array([v.amplitudes for v in self.vectors])


@dataclass(frozen=True)
class KrausSet:
    """Finite family {E_l} with sum E+ E = identity (a CPTP channel)."""

    dim: int
    operators: tuple[Operator, ...]

    def __post_init__(self):
        ops = tuple(self.operators)
        if not ops:
            raise ValueError("KrausSet needs at least one operator")
        for op in ops:
            if op.entries.shape != (self.dim, self.dim):
                raise ValueError(
                    f"Kraus operator shape {op.entries.shape} != ({self.dim}, {self.dim})"
                )
        dev = self.completeness_deviation(ops)
        if not dev <= ATOL:
            raise ValueError(f"Kraus set is not complete (deviation {dev:.3e})")
        object.__setattr__(self, "operators", ops)

    @staticmethod
    def completeness_deviation(ops: Sequence[Operator]) -> float:
        dim = ops[0].entries.shape[0]
        acc = np.zeros((dim, dim), dtype=complex)
        for op in ops:
            acc += op.entries.conj().T @ op.entries
        return float(np.max(np.abs(acc - np.eye(dim))))


@dataclass(frozen=True)
class BranchEnsemble:
    """Mixed state as a weighted list of pure branches (weights sum to 1)."""

    branches: tuple[tuple[float, StateVector], ...]

    def __post_init__(self):
        brs = tuple((float(w), s) for w, s in self.branches)
        if not brs:
            raise ValueError("ensemble needs at least one branch")
        if any(w < -WEIGHT_ATOL for w, _ in brs):
            raise ValueError("negative branch weight")
        total = sum(w for w, _ in brs)
        if not abs(total - 1.0) <= WEIGHT_ATOL:
            raise ValueError(f"branch weights sum to {total!r}, expected 1")
        dims = brs[0][1].dims
        if any(s.dims != dims for _, s in brs):
            raise ValueError("branches live on different subsystem layouts")
        object.__setattr__(self, "branches", brs)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.branches[0][1].dims

    def density_matrix(self) -> np.ndarray:
        """Dense sum_b w_b |b><b| (fine at desk scale, O(dim^2) memory)."""
        weights = np.array([w for w, _ in self.branches])
        amps = np.array([s.amplitudes for _, s in self.branches])
        return (amps.T * weights) @ amps.conj()

    @staticmethod
    def pure(state: StateVector) -> "BranchEnsemble":
        return BranchEnsemble(((1.0, state),))


def ensemble_from_density(rho: np.ndarray, dims: tuple[int, ...]) -> BranchEnsemble:
    """Exact pure-branch decomposition of a density matrix via eigensystem.

    Tiny negative eigenvalues from roundoff are clipped; weights are
    renormalized so they sum to one.
    """
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
    return BranchEnsemble(tuple((w / total, s) for w, s in pairs))


# ---------------------------------------------------------------------------
# operations on states


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; subsystem dims are concatenated."""
    return StateVector(
        a.dims + b.dims,
        np.kron(a.amplitudes, b.amplitudes),
        normalized=a.normalized and b.normalized,
    )


def _subsystems(targets: int | Sequence[int], dims: tuple[int, ...]) -> tuple[int, ...]:
    """`targets` as a tuple of distinct subsystem indices into `dims`."""
    if isinstance(targets, (int, np.integer)):
        targets = (int(targets),)
    targets = tuple(int(t) for t in targets)
    if any(not 0 <= t < len(dims) for t in targets) or len(set(targets)) != len(targets):
        raise ValueError(f"bad target subsystems {targets} for dims {dims}")
    return targets


def _check_target(target: int, dims: tuple[int, ...]) -> None:
    """Reject a single subsystem index outside 0..len(dims)-1; no wrap-around."""
    if not 0 <= target < len(dims):
        raise ValueError(f"target {target} out of range for dims {dims}")


def _front_rows(amps: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """`amps` as a matrix: rows run over the `targets` axes, in the order listed."""
    moved = np.moveaxis(amps, targets, range(len(targets)))
    return moved.reshape(math.prod(moved.shape[: len(targets)]), -1)


def apply_on(op: Operator, state: StateVector, targets: int | Sequence[int]) -> StateVector:
    """Apply `op` to the listed subsystems, identity on the rest."""
    dims = state.dims
    targets = _subsystems(targets, dims)
    d_t = int(np.prod([dims[t] for t in targets]))
    if op.dim_in != d_t or op.dim_out != d_t:
        raise ValueError(
            f"operator is {op.dim_out}x{op.dim_in} but targets span dimension {d_t}"
        )
    rows = op.entries @ _front_rows(state.tensor_view(), targets)
    rest = [d for i, d in enumerate(dims) if i not in targets]
    moved = rows.reshape([dims[t] for t in targets] + rest)
    out = np.moveaxis(moved, range(len(targets)), targets).reshape(-1)
    return StateVector(dims, out, normalized=state.normalized and op.unitary)


def born_draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one outcome index from the unclipped Born probabilities of a normalized state.

    Raises ValueError when a probability is negative beyond roundoff or the
    probabilities do not sum to one; otherwise clips roundoff negatives,
    renormalizes and inverts the cumulative distribution at one
    `rng.random()` draw. That is the draw `rng.choice(len(p), p=p)` makes
    internally, on the same floats, so it returns the same index and leaves
    the generator in the same state, without re-checking `p`.
    """
    lowest = float(probs.min())
    if lowest < -WEIGHT_ATOL:
        raise ValueError(f"negative outcome probability {lowest!r}")
    total = float(probs.sum())
    if not abs(total - 1.0) <= ATOL:
        raise ValueError(f"outcome probabilities sum to {total!r}, expected 1")
    # np.clip(probs, 0.0, None) is this maximum, through a slower wrapper
    probs = np.maximum(probs, 0.0)
    probs = probs / probs.sum()
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def project(
    state: StateVector, basis_vec: StateVector, target: int
) -> tuple[float, Optional[StateVector]]:
    """Project one subsystem onto `basis_vec` and remove it.

    Returns (probability, renormalized remainder). The remainder is None
    when the probability vanishes.
    """
    dims = state.dims
    _check_target(target, dims)
    if basis_vec.dims != (dims[target],):
        raise ValueError(
            f"basis vector dims {basis_vec.dims} do not match subsystem dim {dims[target]}"
        )
    remainder = basis_vec.amplitudes.conj() @ _front_rows(state.tensor_view(), (target,))
    prob = float(np.real(np.vdot(remainder, remainder)))
    if prob <= _PRUNE_EPS:
        return 0.0, None
    rest_dims = dims[:target] + dims[target + 1 :]
    return prob, StateVector(rest_dims, remainder / np.sqrt(prob), normalized=state.normalized)


def _born(bras: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Unclipped Born probabilities of every bra against the target rows."""
    return np.sum(np.abs(bras @ rows) ** 2, axis=1)


def projection_probabilities(
    state: StateVector, basis: MeasurementBasis, target: int
) -> np.ndarray:
    """Born probabilities of all outcomes of measuring `target` in `basis`."""
    dims = state.dims
    _check_target(target, dims)
    if basis.dim != dims[target]:
        raise ValueError(f"basis dim {basis.dim} != subsystem dim {dims[target]}")
    return _born(basis.matrix().conj(), _front_rows(state.tensor_view(), (target,)))


def measure(
    state: StateVector,
    basis: MeasurementBasis,
    target: int,
    rng: np.random.Generator | int | None = None,
) -> tuple[int, StateVector]:
    """Sample one projective outcome; deterministic for a fixed seed."""
    dims = state.dims
    _check_target(target, dims)
    if basis.dim != dims[target]:
        raise ValueError(f"basis dim {basis.dim} != subsystem dim {dims[target]}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    amps = state.tensor_view()
    if not state.normalized:
        amps = amps / np.linalg.norm(amps)
    bras, rows = basis.matrix().conj(), _front_rows(amps, (target,))
    outcome = born_draw(_born(bras, rows), rng)
    # contract the drawn bra on its own, as `project` does: row `outcome`
    # of `bras @ rows` can differ from that in the last bits
    remainder = bras[outcome] @ rows
    post = remainder / np.sqrt(float(np.real(np.vdot(remainder, remainder))))
    rest_dims = dims[:target] + dims[target + 1 :]
    return outcome, StateVector(rest_dims, post, normalized=state.normalized)


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
    return BranchEnsemble(tuple(out))


def _unnormalized(state: StateVector) -> StateVector:
    return StateVector(state.dims, state.amplitudes, normalized=False)


def fidelity(target: StateVector, ens: BranchEnsemble | StateVector) -> float:
    """sqrt(<target| rho |target>) between a pure target and a mixture."""
    if isinstance(ens, StateVector):
        ens = BranchEnsemble.pure(ens)
    if ens.dims != target.dims:
        raise ValueError(f"dimension mismatch: {target.dims} vs {ens.dims}")
    acc = 0.0
    for w, s in ens.branches:
        acc += w * abs(target.overlap(s)) ** 2
    return float(np.sqrt(acc))


def fidelity_density(target: StateVector, rho: np.ndarray) -> float:
    """Same quantity computed straight from a density matrix."""
    v = target.amplitudes
    return float(np.sqrt(max(np.real(np.vdot(v, rho @ v)), 0.0)))


def reduced_density(state: StateVector, keep: int | Sequence[int]) -> np.ndarray:
    """Partial trace down to the listed subsystems."""
    m = _front_rows(state.tensor_view(), _subsystems(keep, state.dims))
    return m @ m.conj().T
