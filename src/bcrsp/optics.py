"""Linear-optics realization of the protocol's gates and measurement bases.

Qudits are encoded in spatial modes (|j> = path j, counted from zero), so
every basis change becomes a mesh of two-mode variable beam splitters plus
single-mode phase shifters, and every feed-forward correction becomes a
bare phase-shifter bank. A triangular nulling scheme synthesizes the mesh
for an arbitrary unitary; the fixed four-mode network quoted for the
controller's basis is rebuilt verbatim and compared against that synthesis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import ATOL, Operator, StateVector, apply_on, tensor, unitarity_deviation
from .protocol import PhaseVector, correction_unitary, fourier_basis


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
        for el in self.elements:
            top = el.m if isinstance(el, BeamSplitter) else el.mode
            if top >= self.dim:
                raise ValueError(f"element {el} exceeds mode count {self.dim}")

    def beam_splitters(self) -> tuple[BeamSplitter, ...]:
        return tuple(e for e in self.elements if isinstance(e, BeamSplitter))

    def phase_shifters(self) -> tuple[PhaseShifter, ...]:
        return tuple(e for e in self.elements if isinstance(e, PhaseShifter))


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
    if ps.mode >= n:
        raise ValueError(f"mode {ps.mode} out of range for {n} modes")
    diag = np.ones(n, dtype=complex)
    diag[ps.mode] = np.exp(1j * ps.theta)
    return Operator(np.diag(diag))


def element_matrix(el: NetworkElement, n: int) -> np.ndarray:
    if isinstance(el, BeamSplitter):
        return bs_matrix(el, n).entries
    return ps_matrix(el, n).entries


def compose_network(net: InterferometerNetwork) -> np.ndarray:
    out = np.eye(net.dim, dtype=complex)
    for el in net.elements:
        out = out @ element_matrix(el, net.dim)
    return out


# ---------------------------------------------------------------------------
# entangling resource from one controlled shift


def cnot_gate(n: int) -> Operator:
    """Controlled cyclic shift |i, j> -> |i, (i + j) mod n>."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    mat = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i * n + (i + j) % n, i * n + j] = 1.0
    return Operator(mat, unitary=True)


def bell_state(n: int) -> StateVector:
    """(1/sqrt(N)) sum_j |jj> on two qudits."""
    amps = np.zeros(n * n, dtype=complex)
    amps[np.arange(n) * (n + 1)] = 1.0 / np.sqrt(n)
    return StateVector((n, n), amps)


def ghz_via_cnot(n: int) -> StateVector:
    """Bell pair plus a |0> ancilla, shifted by one controlled gate.

    The control is the second qudit of the pair, the target the ancilla;
    the result equals the three-party GHZ state entrywise.
    """
    start = tensor(bell_state(n), StateVector((n,), np.eye(n, dtype=complex)[0]))
    return apply_on(cnot_gate(n), start, targets=(1, 2))


# ---------------------------------------------------------------------------
# triangular synthesis


def reck_decompose(u: np.ndarray, atol: float = ATOL) -> InterferometerNetwork:
    """Factor a unitary into n(n-1)/2 beam splitters plus one phase layer.

    Working on the conjugate transpose, each matrix element below the
    diagonal is nulled by a coupler between its column and the diagonal
    column; the residual diagonal phases are emitted as explicit
    phase shifters closing the element list (the input side of the mesh).
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"need a square matrix, got shape {u.shape}")
    dev = unitarity_deviation(u)
    if not dev <= atol:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
    n = u.shape[0]
    v = u.conj().T.copy()
    splitters: list[BeamSplitter] = []
    for r in range(n - 1, 0, -1):
        for c in range(r):
            a, b = v[r, c], v[r, r]
            omega = float(np.arctan2(abs(b), abs(a)))
            phi = float(np.pi + np.angle(b) - np.angle(a))
            bs = BeamSplitter(m=r, n=c, omega=omega, phi=phi)
            v = v @ element_matrix(bs, n)
            splitters.append(bs)
    shifters = [PhaseShifter(mode=i, theta=float(-np.angle(v[i, i]))) for i in range(n)]
    return InterferometerNetwork(dim=n, elements=tuple(splitters) + tuple(shifters))


def reconstruction_error(net: InterferometerNetwork, u: np.ndarray) -> float:
    return float(np.max(np.abs(compose_network(net) - u)))


# ---------------------------------------------------------------------------
# the quoted four-mode network


def controller_basis_matrix(n: int = 4) -> np.ndarray:
    """Rows are the controller's measurement vectors in path coordinates."""
    return fourier_basis(n).matrix()


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


@dataclass(frozen=True)
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

    bs_mats = [element_matrix(b, 4) for b in splitters]
    ps_mat = np.eye(4, dtype=complex)
    for s in shifters:
        ps_mat = ps_mat @ element_matrix(s, 4)
    chain = np.eye(4, dtype=complex)
    for m in bs_mats:
        chain = chain @ m
    chain_dag = np.eye(4, dtype=complex)
    for m in bs_mats:
        chain_dag = chain_dag @ m.conj().T
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


def sender_network_matrix(p: PhaseVector) -> np.ndarray:
    return compose_network(sender_network(p))


def correction_circuit(k: int, n: int = 4) -> list[PhaseShifter]:
    """Phase-shifter bank realizing the diagonal feed-forward unitary U_k."""
    if not 0 <= k < n:
        raise ValueError(f"correction index {k} out of range for dim {n}")
    shifters = []
    for j in range(1, n):
        theta = 2.0 * np.pi * ((j * k) % n) / n
        if theta != 0.0:
            shifters.append(PhaseShifter(mode=j, theta=theta))
    return shifters


def correction_circuit_matrix(k: int, n: int = 4) -> np.ndarray:
    out = np.eye(n, dtype=complex)
    for ps in correction_circuit(k, n):
        out = out @ ps_matrix(ps, n).entries
    return out


def verify_correction_circuits(n: int = 4) -> bool:
    """Bank-vs-unitary equality, entry for entry, for every k."""
    return all(
        np.array_equal(correction_circuit_matrix(k, n), correction_unitary(k, n).entries)
        for k in range(n)
    )


# ---------------------------------------------------------------------------
# serialization


def network_to_json(net: InterferometerNetwork) -> str:
    elements = []
    for el in net.elements:
        if isinstance(el, BeamSplitter):
            elements.append(
                {"kind": "bs", "modes": [el.m, el.n], "omega": el.omega, "phi": el.phi}
            )
        else:
            elements.append({"kind": "ps", "mode": el.mode, "theta": el.theta})
    return json.dumps({"dim": net.dim, "elements": elements}, indent=2) + "\n"


def network_from_json(serialized: str) -> InterferometerNetwork:
    doc = json.loads(serialized)
    elements: list[NetworkElement] = []
    for el in doc["elements"]:
        if el["kind"] == "bs":
            m, n = el["modes"]
            elements.append(BeamSplitter(m=m, n=n, omega=el["omega"], phi=el["phi"]))
        elif el["kind"] == "ps":
            elements.append(PhaseShifter(mode=el["mode"], theta=el["theta"]))
        else:
            raise ValueError(f"unknown element kind {el['kind']!r}")
    return InterferometerNetwork(dim=int(doc["dim"]), elements=tuple(elements))
