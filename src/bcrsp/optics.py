"""Linear-optics realization of the protocol's gates and measurement bases.

Qudits are encoded in spatial modes (|j> = path j, counted from zero), so
every basis change becomes a mesh of two-mode variable beam splitters plus
single-mode phase shifters, and every feed-forward correction becomes a
bare phase-shifter bank. A triangular nulling scheme synthesizes the mesh
for an arbitrary unitary; the fixed four-mode network quoted for the
controller's basis is rebuilt verbatim and compared against that synthesis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import ATOL, StateVector, tensor, unitarity_deviation
from .protocol import PhaseVector, _check_dimension, correction_unitary, phase_table


@dataclass(frozen=True)
class BeamSplitter:
    """Variable two-mode coupler between paths m > n (zero-based).

    Its matrix mixes the pair with the block
        [[e^{i phi} sin w, e^{i phi} cos w], [cos w, -sin w]]
    written on rows/columns (n, m) and identity elsewhere.
    """

    m: int
    n: int
    omega: float
    phi: float

    def __post_init__(self):
        if self.m <= self.n or self.n < 0:
            raise ValueError(f"need mode indices m > n >= 0, got ({self.m}, {self.n})")


@dataclass(frozen=True)
class PhaseShifter:
    """e^{i theta} on a single path."""

    mode: int
    theta: float


NetworkElement = Union[BeamSplitter, PhaseShifter]


@dataclass(frozen=True)
class InterferometerNetwork:
    """Ordered mesh; the composed matrix is the product in list order.

    elements[0] contributes the leftmost factor, so light traverses the
    list back to front: the last element sits at the input.
    """

    dim: int
    elements: tuple[NetworkElement, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"mode count must be at least 1, got {self.dim}")
        for el in self.elements:
            top = el.m if isinstance(el, BeamSplitter) else el.mode  # a splitter has m > n >= 0
            if not 0 <= top < self.dim:
                raise ValueError(f"element {el} is negative or exceeds mode count {self.dim}")

    def beam_splitters(self) -> tuple[BeamSplitter, ...]:
        return tuple(e for e in self.elements if isinstance(e, BeamSplitter))

    def phase_shifters(self) -> tuple[PhaseShifter, ...]:
        return tuple(e for e in self.elements if isinstance(e, PhaseShifter))


def _mix_columns(lo: list, hi: list, omega: float, phi: float, rows: int) -> None:
    """Right-multiply columns (lo, hi) = (n, m) by the coupler block, in rows 0..rows-1."""
    ph = cmath.exp(1j * phi)
    s, c = math.sin(omega), math.cos(omega)
    ps, pc = ph * s, ph * c
    for i in range(rows):
        x, y = lo[i], hi[i]
        lo[i] = x * ps + y * c
        hi[i] = x * pc - y * s


def compose_network(net: InterferometerNetwork) -> np.ndarray:
    """The product of the element matrices in list order.

    Right-multiplying by a coupler mixes only its columns n and m, and by a
    phase shifter scales one column, so each element updates those columns
    of the running product in O(N) and the whole mesh costs O(N^3).
    """
    cols = np.eye(net.dim, dtype=complex).tolist()  # cols[j] is column j
    for el in net.elements:
        if isinstance(el, BeamSplitter):
            _mix_columns(cols[el.n], cols[el.m], el.omega, el.phi, net.dim)
        else:
            ph = cmath.exp(1j * el.theta)
            cols[el.mode] = [x * ph for x in cols[el.mode]]
    return np.array(cols).T


# ---------------------------------------------------------------------------
# entangling resource from one controlled shift


def bell_state(n: int) -> StateVector:
    """(1/sqrt(N)) sum_j |jj> on two qudits."""
    amps = np.zeros(n * n, dtype=complex)
    amps[np.arange(n) * (n + 1)] = 1.0 / np.sqrt(n)
    return StateVector((n, n), amps)


def ghz_via_cnot(n: int) -> StateVector:
    """Bell pair plus a |0> ancilla, shifted by one controlled gate.

    The control is the second qudit of the pair, the target the ancilla;
    the result equals the three-party GHZ state entrywise. The controlled
    shift |b, c> -> |b, (b + c) mod n> only permutes basis states, so it is
    applied as the index permutation out[a, b, (b + c) mod n] = start[a, b, c]:
    O(n^3), with no n^2 x n^2 matrix.
    """
    _check_dimension(n)
    start = tensor(bell_state(n), StateVector((n,), np.eye(n, dtype=complex)[0]))
    j = np.arange(n)
    out = np.empty((n, n, n), dtype=complex)
    out[:, j[:, None], (j[:, None] + j) % n] = start.tensor_view()
    return StateVector((n, n, n), out.reshape(-1))


# ---------------------------------------------------------------------------
# triangular synthesis


def reck_decompose(u: np.ndarray) -> InterferometerNetwork:
    """Factor a unitary into n(n-1)/2 beam splitters plus one phase layer.

    Working on the conjugate transpose, each matrix element below the
    diagonal is nulled by a coupler between its column and the diagonal
    column; the residual diagonal phases are emitted as explicit
    phase shifters closing the element list (the input side of the mesh).

    Coupler (r, c) mixes only columns c and r, and no later step reads
    their rows after r, so it updates rows 0..r of those two columns:
    O(r) work per coupler and O(n^3) in all.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.size == 0:
        raise ValueError(f"need a non-empty square matrix, got shape {u.shape}")
    dev = unitarity_deviation(u)
    if not dev <= ATOL:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
    n = u.shape[0]
    cols = u.conj().tolist()  # cols[j] is column j of u^dagger
    splitters: list[BeamSplitter] = []
    for r in range(n - 1, 0, -1):
        right = cols[r]
        for c in range(r):
            left = cols[c]
            a, b = left[r], right[r]
            omega = math.atan2(abs(b), abs(a))
            phi = math.pi + cmath.phase(b) - cmath.phase(a)
            splitters.append(BeamSplitter(m=r, n=c, omega=omega, phi=phi))
            _mix_columns(left, right, omega, phi, r + 1)
    shifters = tuple(
        PhaseShifter(mode=i, theta=-cmath.phase(cols[i][i])) for i in range(n)
    )
    return InterferometerNetwork(dim=n, elements=tuple(splitters) + shifters)


def reconstruction_error(net: InterferometerNetwork, u: np.ndarray) -> float:
    return float(np.max(np.abs(compose_network(net) - u)))


# ---------------------------------------------------------------------------
# the quoted four-mode network


def controller_basis_matrix(n: int) -> np.ndarray:
    """Rows are the controller's measurement vectors in path coordinates."""
    _check_dimension(n)
    return phase_table(n) / np.sqrt(n)


# printed coupler parameters of the fixed four-mode mesh, keyed by the
# one-based (m, n) path labels used with T_mn
_QUOTED_BS_PARAMS = {
    (4, 3): (np.pi / 2, np.pi / 4),
    (4, 2): (np.pi, np.arctan(np.sqrt(2.0))),
    (4, 1): (3 * np.pi / 2, np.pi / 3),
    (3, 2): (np.arctan(-2.0), np.arctan(np.sqrt(6.0 / 10.0))),
    (3, 1): (np.arctan(-np.sqrt(2.0)), np.pi / 4),
    (2, 1): (np.pi / 4, np.arctan(-2.0)),
}

# printed phase-shifter bank of the same figure
_QUOTED_SHIFTER_THETAS = (
    np.arctan(-1.0 / 3.0),
    np.arctan(-1.0 / 3.0),
    np.pi / 4,
    np.pi / 2,
)


@dataclass(frozen=True, eq=False)
class FixedNetworkReport:
    network: InterferometerNetwork
    composed: np.ndarray
    target: np.ndarray
    unitarity: float
    max_deviation: float
    alternates: dict


def paper_network_4d() -> FixedNetworkReport:
    """The quoted six-coupler network with its printed parameters.

    Composed in the order P-layer, T21, T31, T32, T41, T42, T43 (list
    order, output to input). Agreement with the controller's basis matrix
    is reported, not assumed; a few plausible re-orderings are scored in
    `alternates` for reference.
    """
    shifters = tuple(
        PhaseShifter(mode=i, theta=float(t)) for i, t in enumerate(_QUOTED_SHIFTER_THETAS)
    )
    order = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
    splitters = tuple(
        BeamSplitter(m=m - 1, n=n - 1, phi=_QUOTED_BS_PARAMS[(m, n)][0],
                     omega=_QUOTED_BS_PARAMS[(m, n)][1])
        for m, n in order
    )
    net = InterferometerNetwork(dim=4, elements=shifters + splitters)
    composed = compose_network(net)
    target = controller_basis_matrix(4)

    def dev(mat: np.ndarray) -> float:
        return float(np.max(np.abs(mat - target)))

    ps_mat = compose_network(InterferometerNetwork(4, shifters))
    chain = compose_network(InterferometerNetwork(4, splitters))
    # T21+ T31+ ... T43+ is the conjugate transpose of the reversed chain
    chain_dag = compose_network(InterferometerNetwork(4, splitters[::-1])).conj().T
    alternates = {
        "phase_layer_last": dev(chain @ ps_mat),
        "daggered_couplers": dev(ps_mat @ chain_dag),
        "daggered_couplers_phase_last": dev(chain_dag @ ps_mat),
        "no_phase_layer": dev(chain),
    }
    return FixedNetworkReport(
        network=net,
        composed=composed,
        target=target,
        unitarity=unitarity_deviation(composed),
        max_deviation=dev(composed),
        alternates=alternates,
    )


def sender_network(p: PhaseVector) -> InterferometerNetwork:
    """Controller mesh with per-mode input shifters e^{-i theta_j} prepended.

    The composed matrix rows are then the sender's measurement vectors in
    path coordinates.
    """
    base = reck_decompose(controller_basis_matrix(p.dim))
    input_phases = tuple(
        PhaseShifter(mode=j, theta=float(-t))
        for j, t in enumerate(p.full())
        if j > 0
    )
    return InterferometerNetwork(dim=p.dim, elements=base.elements + input_phases)


def correction_circuit(k: int, n: int) -> list[PhaseShifter]:
    """Phase-shifter bank realizing the diagonal feed-forward unitary U_k."""
    _check_dimension(n)
    if not 0 <= k < n:
        raise ValueError(f"correction index {k} out of range for dim {n}")
    shifters = []
    for j in range(1, n):
        theta = 2.0 * np.pi * ((j * k) % n) / n
        if theta != 0.0:
            shifters.append(PhaseShifter(mode=j, theta=theta))
    return shifters


def correction_circuit_matrix(k: int, n: int) -> np.ndarray:
    return compose_network(InterferometerNetwork(n, tuple(correction_circuit(k, n))))


def verify_correction_circuits(n: int) -> bool:
    """Bank-vs-unitary agreement within ATOL, entry for entry, for every k.

    The bank's scalar `cmath.exp` and U_k's vectorised `np.exp` (`phase_table`)
    can differ in the last bit: 0.5000000000000001 against 0.49999999999999933
    at n=6, k=1, j=5."""
    _check_dimension(n)
    return all(
        np.abs(correction_circuit_matrix(k, n) - correction_unitary(k, n).entries).max() <= ATOL
        for k in range(n)
    )


# ---------------------------------------------------------------------------
# serialization


def _network_doc(net: InterferometerNetwork) -> dict:
    """The JSON object of a network: its dim and one object per element."""
    elements = [
        {"kind": "bs", "modes": [el.m, el.n], "omega": el.omega, "phi": el.phi}
        if isinstance(el, BeamSplitter)
        else {"kind": "ps", "mode": el.mode, "theta": el.theta}
        for el in net.elements
    ]
    return {"dim": net.dim, "elements": elements}
