import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcrsp.core import StateVector, apply_on, random_unitary, tensor, unitarity_deviation
from bcrsp.optics import (
    BeamSplitter,
    InterferometerNetwork,
    PhaseShifter,
    bell_state,
    compose_network,
    controller_basis_matrix,
    correction_circuit,
    correction_circuit_matrix,
    ghz_via_cnot,
    paper_network_4d,
    reck_decompose,
    reconstruction_error,
    sender_network,
    verify_correction_circuits,
)
from bcrsp.protocol import PhaseVector, correction_unitary, ghz_state, sender_basis
from conftest import random_phase_vector
from dense import bs_matrix, cnot_gate, element_matrix, ps_matrix


def dense_reck_decompose(u: np.ndarray) -> InterferometerNetwork:
    """Reference synthesis: the working matrix times one dense coupler per step."""
    v = np.asarray(u, dtype=complex).conj().T.copy()
    n = v.shape[0]
    splitters = []
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


def dense_compose(net: InterferometerNetwork) -> np.ndarray:
    """Reference mesh matrix: the product of the dense element matrices."""
    out = np.eye(net.dim, dtype=complex)
    for el in net.elements:
        out = out @ element_matrix(el, net.dim)
    return out


def _angle_gap(x: float, y: float) -> float:
    """|x - y| modulo 2 pi."""
    return abs((x - y + np.pi) % (2 * np.pi) - np.pi)


@st.composite
def networks(draw):
    n = draw(st.integers(2, 16))
    angle = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
    coupler = st.integers(1, n - 1).flatmap(
        lambda m: st.builds(BeamSplitter, m=st.just(m), n=st.integers(0, m - 1),
                            omega=angle, phi=angle)
    )
    shifter = st.builds(PhaseShifter, mode=st.integers(0, n - 1), theta=angle)
    elements = draw(st.lists(st.one_of(coupler, shifter), max_size=3 * n))
    return InterferometerNetwork(dim=n, elements=tuple(elements))


class TestCnot:
    def test_qubit_case_is_standard(self):
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = expected[3, 2] = expected[2, 3] = 1.0
        np.testing.assert_array_equal(cnot_gate(2).entries, expected)

    def test_qutrit_shift(self):
        gate = cnot_gate(3).entries
        # |2,2> -> |2, (2+2) mod 3> = |2,1>
        assert gate[2 * 3 + 1, 2 * 3 + 2] == 1.0

    @pytest.mark.parametrize("n", range(2, 17))
    def test_permutation_and_unitary(self, n):
        gate = cnot_gate(n).entries
        assert np.array_equal(np.sort(np.abs(gate), axis=0)[-1], np.ones(n * n))
        assert np.count_nonzero(gate) == n * n
        assert unitarity_deviation(gate) <= 1e-12


class TestGhzFromCnot:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_exact_equality(self, n):
        lhs = ghz_via_cnot(n)
        rhs = ghz_state(n)
        assert lhs.dims == rhs.dims
        np.testing.assert_array_equal(lhs.amplitudes, rhs.amplitudes)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_permutation_equals_dense_gate(self, n):
        # the index permutation against the n^2 x n^2 gate applied by apply_on
        start = tensor(bell_state(n), StateVector((n,), np.eye(n, dtype=complex)[0]))
        dense = apply_on(cnot_gate(n), start, targets=(1, 2))
        lhs = ghz_via_cnot(n)
        assert lhs.dims == dense.dims
        assert lhs.amplitudes.tobytes() == dense.amplitudes.tobytes()

    def test_rejects_degenerate_dimension(self):
        with pytest.raises(ValueError, match="at least 2"):
            ghz_via_cnot(1)

    def test_bell_state_layout(self):
        amps = bell_state(3).amplitudes
        expected = np.zeros(9)
        expected[[0, 4, 8]] = 1 / np.sqrt(3)
        np.testing.assert_allclose(amps, expected, atol=1e-15)


class TestBeamSplitterMatrix:
    def test_quoted_top_pair_form(self):
        # coupler on the two highest of four paths, phi = pi/2, omega = pi/4
        mat = bs_matrix(BeamSplitter(m=3, n=2, omega=np.pi / 4, phi=np.pi / 2), 4).entries
        s = np.sqrt(0.5)
        expected = np.eye(4, dtype=complex)
        expected[2, 2] = 1j * s
        expected[2, 3] = 1j * s
        expected[3, 2] = s
        expected[3, 3] = -s
        np.testing.assert_allclose(mat, expected, atol=1e-15)

    def test_bar_state(self):
        mat = bs_matrix(BeamSplitter(m=1, n=0, omega=np.pi / 2, phi=0.0), 2).entries
        np.testing.assert_allclose(mat, np.diag([1.0, -1.0]), atol=1e-15)

    @given(
        omega=st.floats(0, np.pi, allow_nan=False),
        phi=st.floats(-np.pi, np.pi, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_unitary(self, omega, phi):
        mat = bs_matrix(BeamSplitter(m=2, n=0, omega=omega, phi=phi), 3).entries
        assert unitarity_deviation(mat) <= 1e-12

    def test_equal_modes_rejected(self):
        with pytest.raises(ValueError, match="m > n"):
            BeamSplitter(m=1, n=1, omega=0.1, phi=0.0)


class TestReckDecompose:
    def test_identity(self):
        net = reck_decompose(np.eye(4))
        assert reconstruction_error(net, np.eye(4)) <= 1e-12

    def test_controller_matrix_structure(self):
        target = controller_basis_matrix(4)
        net = reck_decompose(target)
        assert len(net.beam_splitters()) == 6
        assert len(net.phase_shifters()) <= 4
        assert reconstruction_error(net, target) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_random_round_trips(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(100):
            u = random_unitary(rng, n)
            net = reck_decompose(u)
            assert len(net.beam_splitters()) == n * (n - 1) // 2
            assert reconstruction_error(net, u) <= 1e-10

    def test_composed_matrix_is_unitary(self):
        rng = np.random.default_rng(55)
        net = reck_decompose(random_unitary(rng, 5))
        assert unitarity_deviation(compose_network(net)) <= 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            reck_decompose(np.ones((3, 3)))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_matrix_rejected(self, value):
        # `dev > atol` is False for NaN; the check must reject it instead
        with pytest.raises(ValueError, match="not unitary"):
            reck_decompose(np.full((3, 3), value))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            reck_decompose(np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (0,), (2, 2, 2), ()])
    def test_empty_or_non_matrix_rejected_with_its_shape(self, shape):
        # a 0 x 0 matrix once passed as square and failed inside numpy
        with pytest.raises(ValueError) as err:
            reck_decompose(np.ones(shape))
        assert str(err.value) == f"need a non-empty square matrix, got shape {shape}"


class TestAgainstDenseOracle:
    @given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_haar_mesh_matches_dense_synthesis(self, n, seed):
        u = random_unitary(np.random.default_rng(seed), n)
        net, ref = reck_decompose(u), dense_reck_decompose(u)
        assert len(net.elements) == len(ref.elements)
        for el, want in zip(net.elements, ref.elements):
            assert type(el) is type(want)
            if isinstance(el, BeamSplitter):
                assert (el.m, el.n) == (want.m, want.n)
                assert _angle_gap(el.omega, want.omega) <= 1e-12
                assert _angle_gap(el.phi, want.phi) <= 1e-12
            else:
                assert el.mode == want.mode
                assert _angle_gap(el.theta, want.theta) <= 1e-12

    @given(net=networks())
    @settings(max_examples=100, deadline=None)
    def test_compose_equals_dense_product(self, net):
        np.testing.assert_allclose(compose_network(net), dense_compose(net), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_exact_zero_inputs_reconstruct(self, n):
        for target in (np.eye(n), controller_basis_matrix(n)):
            assert reconstruction_error(reck_decompose(target), target) <= 1e-12

    @given(perm=st.integers(2, 16).flatmap(lambda n: st.permutations(range(n))))
    @settings(max_examples=60, deadline=None)
    def test_permutations_reconstruct(self, perm):
        target = np.eye(len(perm))[list(perm)]
        assert reconstruction_error(reck_decompose(target), target) <= 1e-12


class TestQuotedNetwork:
    def test_composed_matrix_is_unitary(self):
        rep = paper_network_4d()
        assert rep.unitarity <= 1e-10

    def test_deviation_reported_against_target(self):
        # the printed coupler parameters do not reproduce the controller's
        # basis matrix; the report carries that finding plus alternates
        rep = paper_network_4d()
        assert rep.max_deviation >= 0.0
        assert set(rep.alternates) >= {"phase_layer_last", "daggered_couplers"}
        assert rep.network.dim == 4
        assert len(rep.network.beam_splitters()) == 6

    def test_phase_layer_matters(self):
        rep = paper_network_4d()
        bare = [e for e in rep.network.elements if isinstance(e, BeamSplitter)]
        net = InterferometerNetwork(dim=4, elements=tuple(bare))
        assert np.max(np.abs(compose_network(net) - rep.composed)) > 1e-6


class TestSenderNetwork:
    def test_zero_phases_reduce_to_controller_network(self):
        mat = compose_network(sender_network(PhaseVector.zero(4)))
        np.testing.assert_allclose(mat, controller_basis_matrix(4), atol=1e-10)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rows_are_sender_vectors(self, seed):
        rng = np.random.default_rng(seed)
        p = random_phase_vector(4, rng)
        np.testing.assert_allclose(
            compose_network(sender_network(p)), sender_basis(p).matrix(), atol=1e-10
        )

    def test_receiver_side_same_construction(self):
        # the partner party's transformation only swaps in their phases
        rng = np.random.default_rng(9)
        p = random_phase_vector(4, rng)
        np.testing.assert_allclose(
            compose_network(sender_network(p)), sender_basis(p).matrix(), atol=1e-10
        )

    def test_input_shifters_factor_out(self):
        p = PhaseVector(4, (0.5, 1.0, 1.5))
        net = sender_network(p)
        undo = np.diag(np.exp(1j * p.full()))
        np.testing.assert_allclose(
            compose_network(net) @ undo, controller_basis_matrix(4), atol=1e-10
        )

    def test_general_dimension(self):
        rng = np.random.default_rng(12)
        p = random_phase_vector(5, rng)
        np.testing.assert_allclose(
            compose_network(sender_network(p)), sender_basis(p).matrix(), atol=1e-10
        )


class TestCorrectionCircuits:
    def test_zero_index_is_empty(self):
        assert correction_circuit(0, 4) == []

    def test_index_one_bank(self):
        bank = correction_circuit(1, 4)
        assert [(s.mode, s.theta) for s in bank] == [
            (1, pytest.approx(np.pi / 2)),
            (2, pytest.approx(np.pi)),
            (3, pytest.approx(3 * np.pi / 2)),
        ]

    def test_index_three_bank(self):
        bank = correction_circuit(3, 4)
        assert [(s.mode, s.theta) for s in bank] == [
            (1, pytest.approx(3 * np.pi / 2)),
            (2, pytest.approx(np.pi)),
            (3, pytest.approx(np.pi / 2)),
        ]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_banks_equal_unitaries_exactly(self, n):
        for k in range(n):
            np.testing.assert_array_equal(
                correction_circuit_matrix(k, n), correction_unitary(k, n).entries
            )
        assert verify_correction_circuits(n)

    def test_banks_verify_at_every_dimension(self):
        # scalar cmath.exp and vectorised np.exp differ in the last bit from n=6 on
        assert [n for n in range(2, 65) if not verify_correction_circuits(n)] == []


class TestSerialization:
    """Every mode of a network, as `bcrsp decompose` writes it, lies in range."""

    def test_mode_bounds_checked(self):
        with pytest.raises(ValueError, match="exceeds mode count"):
            InterferometerNetwork(dim=2, elements=(PhaseShifter(mode=5, theta=0.0),))

    @pytest.mark.parametrize("build", [
        lambda: InterferometerNetwork(dim=3, elements=(PhaseShifter(mode=-1, theta=0.3),)),
        lambda: ps_matrix(PhaseShifter(mode=-1, theta=0.3), 3),
        lambda: bs_matrix(BeamSplitter(m=1, n=-1, omega=0.2, phi=0.0), 3),
    ], ids=["network", "ps-matrix", "bs-matrix"])
    def test_negative_modes_rejected(self, build):
        # a negative index would reach the last mode through Python indexing
        with pytest.raises(ValueError, match="negative|out of range|>= 0"):
            build()

    @pytest.mark.parametrize("dim", [0, -2])
    @pytest.mark.parametrize("build", [
        lambda dim: InterferometerNetwork(dim=dim, elements=()),
    ], ids=["network"])
    def test_mode_count_below_one_rejected(self, build, dim):
        with pytest.raises(ValueError, match=f"mode count must be at least 1, got {dim}"):
            build(dim)
