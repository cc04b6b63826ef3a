"""Dense linear algebra for systems of several qudits.

States are plain complex vectors tagged with the list of subsystem
dimensions; mixed states are kept exact, either as weighted lists of pure
states or as dense density matrices. A `StateVector` checks its amplitude
count and its norm (one `vdot`) on every construction, so building one is
cheap but never unchecked. The weighted-list form (`BranchEnsemble`,
`ensemble_from_density`) serves only the eigen-views of noisy results
and the branch-by-branch oracles in the tests. An ensemble keeps its
weights and amplitude rows as two read-only arrays, checked once with the
tolerances `StateVector` uses, and builds `StateVector` branches only when
they are read. The weight and norm checks are one body, `_check_branches`,
which the constructor and `ensemble_from_density` both call.
`ensemble_from_density` takes a stack of density matrices, such as a noisy
run's (2, N, N) output block, and checks it as a whole: one batched `eigh`,
one squared-norm pass over one block of eigenvector rows, then
`_check_branches` per matrix; its ensembles are views of that block and
are not checked again.

The general tensor operations (`apply_on`, `project`, `measure`,
`reduced_density`) share one idiom: move the target axes to the front
with `np.moveaxis`, then do one matmul against the operator or the
conjugated basis rows. The protocol engine and sessions do not need them,
because a GHZ leg stays diagonal under every slot measurement; they carry
each leg as its diagonal and share only the Born distribution,
`born_cdf`, whose checks every sampled outcome passes.
`born_draw` inverts that cumulative distribution at one `rng.random()`
(`_invert_cdf`), exactly as `Generator.choice` does, so seeded outcomes
are those of `rng.choice`; the engine caches the CDFs per target and
makes only that last step per draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# structural checks (orthonormality, unitarity, overlap) use ATOL;
# weight and trace bookkeeping is tighter. Each check reads `not dev <= tol`,
# so a NaN deviation fails it.
ATOL = 1e-10
WEIGHT_ATOL = 1e-12

# a projection whose probability falls below this leaves no remainder
_PRUNE_EPS = 1e-30


def _as_complex_vector(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d amplitude vector, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of one or more qudits with explicit subsystem dims."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        dims = tuple(map(int, self.dims))
        if dims and min(dims) < 1:
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


def same_ray(a: np.ndarray, b: np.ndarray) -> bool:
    """Equality of normalized amplitude arrays up to a global phase."""
    return abs(abs(complex(np.vdot(a, b))) - 1.0) <= ATOL


@dataclass(frozen=True, eq=False)
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


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n x n unitary: QR of a complex Gaussian, phases fixed by R."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitarity_deviation(mat: np.ndarray) -> float:
    """max |U+ U - I| over entries; inf or NaN, without a warning, when U+ U overflows."""
    mat = np.asarray(mat)
    with np.errstate(over="ignore", invalid="ignore"):
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
        # the rows are orthonormal when the matrix of columns is unitary
        dev = unitarity_deviation(self.matrix().conj().T)
        if not dev <= ATOL:
            raise ValueError(f"basis is not orthonormal (deviation {dev:.3e})")
        object.__setattr__(self, "vectors", vecs)

    def matrix(self) -> np.ndarray:
        """Row k holds the coordinates of the k-th basis vector."""
        return np.array([v.amplitudes for v in self.vectors])


@dataclass(frozen=True)
class KrausSet:
    """Finite family {E_l} with sum E+ E = identity (a CPTP channel).

    The completeness deviation is computed once, on construction, and kept
    as `deviation`.
    """

    dim: int
    operators: tuple[Operator, ...]
    deviation: float = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "deviation", dev)

    @staticmethod
    def completeness_deviation(ops: Sequence[Operator]) -> float:
        """max |sum_l E_l+ E_l - I| over entries.

        One batched matmul over the (K, N, N) stack, then a sum over the
        first axis, which adds the K products in order, as a loop would.
        """
        stack = np.array([op.entries for op in ops])
        acc = (stack.conj().transpose(0, 2, 1) @ stack).sum(axis=0)
        return float(np.max(np.abs(acc - np.eye(len(acc)))))


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norms of the complex rows of a C-contiguous array, in one
    pass over its float view: re^2 + im^2 summed along the last axis."""
    flat = rows.view(float)
    return np.add.reduce(flat * flat, axis=-1)


def _check_branches(weights: list[float], squared_norms: list[float]) -> None:
    """The checks of one ensemble, on its weights and its rows' squared norms:
    no weight below -WEIGHT_ATOL, weights summing to one within WEIGHT_ATOL,
    then every row of unit norm within ATOL, as `StateVector` checks a norm."""
    if any(w < -WEIGHT_ATOL for w in weights):
        raise ValueError("negative branch weight")
    total = sum(weights)
    if not abs(total - 1.0) <= WEIGHT_ATOL:
        raise ValueError(f"branch weights sum to {total!r}, expected 1")
    for sq in squared_norms:
        norm = math.sqrt(sq)
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError(f"state is not normalized (|psi| = {norm!r})")


@dataclass(frozen=True, eq=False)
class BranchEnsemble:
    """Mixed state as weighted pure branches: row k of `amplitudes` is
    branch k, with weight `weights[k]`.

    The two arrays are stored read-only and checked once, here: at least
    one branch, one row of prod(dims) amplitudes per weight, then
    `_check_branches`. `branches` builds the `(weight, StateVector)` pairs
    on first read.
    """

    weights: np.ndarray
    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(map(int, self.dims))
        if dims and min(dims) < 1:
            raise ValueError(f"invalid dims {dims}")
        object.__setattr__(self, "dims", dims)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if not weights.size:
            raise ValueError("ensemble needs at least one branch")
        if weights.ndim != 1 or amps.shape != (weights.size, math.prod(dims)):
            raise ValueError(
                f"branch amplitudes of shape {amps.shape} do not match "
                f"{weights.size} weights on dims {dims}"
            )
        _check_branches(weights.tolist(), _squared_norms(amps).tolist())
        weights.setflags(write=False)
        amps.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _checked(
        cls, weights: np.ndarray, amplitudes: np.ndarray, dims: tuple[int, ...]
    ) -> BranchEnsemble:
        """The ensemble of arrays that `_check_branches` has passed, read-only
        and C-contiguous, with `dims` a tuple of ints; nothing is checked again."""
        ens = object.__new__(cls)
        object.__setattr__(ens, "weights", weights)
        object.__setattr__(ens, "amplitudes", amplitudes)
        object.__setattr__(ens, "dims", dims)
        return ens

    @functools.cached_property
    def branches(self) -> tuple[tuple[float, StateVector], ...]:
        """The `(weight, StateVector)` pairs, each row a checked state view."""
        states = (StateVector(self.dims, row) for row in self.amplitudes)
        return tuple(zip(self.weights.tolist(), states))

    def density_matrix(self) -> np.ndarray:
        """Dense sum_b w_b |b><b| (fine at desk scale, O(dim^2) memory)."""
        return (self.amplitudes.T * self.weights) @ self.amplitudes.conj()


def ensemble_from_density(
    rhos: np.ndarray, dims: tuple[int, ...]
) -> tuple[BranchEnsemble, ...]:
    """Exact pure-branch decompositions of a stack of density matrices.

    `rhos` has shape (L, D, D), D = prod(dims); the result is one
    `BranchEnsemble` per matrix. The stack is checked once, as a whole:
    one batched `np.linalg.eigh`, whose eigenpairs are those of each matrix
    alone; one read-only, C-contiguous, complex (L, D, D) block whose row k
    of matrix i is its eigenvector of the k-th largest eigenvalue, as
    LAPACK returns it; one squared-norm pass over the block. Then, per
    matrix, a lowest eigenvalue below -WEIGHT_ATOL raises ValueError naming
    the matrix and the eigenvalue; eigenvalues below 1e-14 (roundoff) are
    dropped, the rest renormalized so they sum to one, and
    `_check_branches` checks these weights and the norms of the kept rows.
    Each ensemble holds its weights and a view of the block's leading rows
    and is not checked again. `eigh` reads only the lower triangle, so a
    non-Hermitian input is not detected. Any other shape, or a dimension
    below one, raises ValueError.
    """
    dims = tuple(map(int, dims))
    size = math.prod(dims)
    shape = np.shape(rhos)
    if len(shape) != 3 or shape[1:] != (size, size):
        raise ValueError(f"density matrix shape {shape} does not match dims {dims}")
    if dims and min(dims) < 1:
        raise ValueError(f"invalid dims {dims}")
    vals, vecs = np.linalg.eigh(rhos)
    # eigh returns ascending eigenvalues and eigenvectors as columns
    block = np.ascontiguousarray(vecs.transpose(0, 2, 1)[:, ::-1], dtype=complex)
    block.setflags(write=False)
    ensembles = []
    for i, (ascending, squared_norms) in enumerate(
        zip(vals.tolist(), _squared_norms(block).tolist())
    ):
        if not ascending[0] >= -WEIGHT_ATOL:
            raise ValueError(f"density matrix {i} has negative eigenvalue {ascending[0]!r}")
        kept = [w for w in reversed(ascending) if w >= 1e-14]
        total = sum(kept)
        if total <= 0:
            raise ValueError("density matrix has no positive weight")
        weights = [w / total for w in kept]
        _check_branches(weights, squared_norms[: len(kept)])
        stored = np.array(weights)
        stored.setflags(write=False)
        ensembles.append(BranchEnsemble._checked(stored, block[i, : len(kept)], dims))
    return tuple(ensembles)


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
    if op.entries.shape != (d_t, d_t):
        out_dim, in_dim = op.entries.shape
        raise ValueError(f"operator is {out_dim}x{in_dim} but targets span dimension {d_t}")
    rows = op.entries @ _front_rows(state.tensor_view(), targets)
    rest = [d for i, d in enumerate(dims) if i not in targets]
    moved = rows.reshape([dims[t] for t in targets] + rest)
    out = np.moveaxis(moved, range(len(targets)), targets).reshape(-1)
    return StateVector(dims, out, normalized=state.normalized and op.unitary)


def born_cdf(probs: np.ndarray) -> np.ndarray:
    """Normalized cumulative distribution of unclipped Born probabilities.

    `probs` is one distribution of a normalized state, or a stack of them
    along the last axis. Raises ValueError when a probability is negative
    beyond roundoff or a distribution does not sum to one; otherwise clips
    roundoff negatives, renormalizes each distribution and returns its
    cumulative sums, the last scaled to exactly one. Each row of a stack
    gets the same floats as that row on its own.
    """
    lowest = float(probs.min())
    if lowest < -WEIGHT_ATOL:
        raise ValueError(f"negative outcome probability {lowest!r}")
    totals = probs.sum(axis=-1, keepdims=True)
    off = np.abs(totals - 1.0)
    if not off.max() <= ATOL:
        # the total farthest from one, or the first NaN
        total = float(totals.flat[np.argmax(off)])
        raise ValueError(f"outcome probabilities sum to {total!r}, expected 1")
    # np.clip(probs, 0.0, None) is this maximum, through a slower wrapper
    probs = np.maximum(probs, 0.0)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def born_draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one outcome index from the unclipped Born probabilities of a normalized state.

    `born_cdf` checks and accumulates the probabilities; the draw inverts
    that cumulative distribution at one `rng.random()`. That is the draw
    `rng.choice(len(p), p=p)` makes internally, on the same floats, so it
    returns the same index and leaves the generator in the same state,
    without re-checking `p`. A caller that draws often from one
    distribution can keep its `born_cdf` and make only the last step.
    """
    return _invert_cdf(born_cdf(probs), rng)


def _invert_cdf(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """The outcome index whose interval of `cdf` holds one `rng.random()`."""
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
    rng = np.random.default_rng(rng)
    amps = state.tensor_view()
    if not state.normalized:
        amps = amps / np.linalg.norm(amps)
    bras, rows = basis.matrix().conj(), _front_rows(amps, (target,))
    outcome = born_draw(np.sum(np.abs(bras @ rows) ** 2, axis=1), rng)
    # contract the drawn bra on its own, as `project` does: row `outcome`
    # of `bras @ rows` can differ from that in the last bits
    remainder = bras[outcome] @ rows
    post = remainder / np.sqrt(float(np.real(np.vdot(remainder, remainder))))
    rest_dims = dims[:target] + dims[target + 1 :]
    return outcome, StateVector(rest_dims, post, normalized=state.normalized)


def fidelity_density(target: StateVector, rho: np.ndarray) -> float:
    """sqrt(<target| rho |target>) between a pure target and a density matrix."""
    v = target.amplitudes
    if rho.shape != (len(v), len(v)):
        raise ValueError(f"target dims {target.dims} do not match rho shape {rho.shape}")
    return math.sqrt(max(float(np.vdot(v, rho @ v).real), 0.0))


def reduced_density(state: StateVector, keep: int | Sequence[int]) -> np.ndarray:
    """Partial trace down to the listed subsystems."""
    m = _front_rows(state.tensor_view(), _subsystems(keep, state.dims))
    return m @ m.conj().T
