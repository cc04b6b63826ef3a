import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcrsp.core import (
    BranchEnsemble,
    KrausSet,
    MeasurementBasis,
    Operator,
    StateVector,
    apply_kraus,
    apply_on,
    basis_state,
    born_draw,
    fidelity,
    fidelity_density,
    measure,
    project,
    projection_probabilities,
    random_unitary,
    reduced_density,
    states_equal,
    tensor,
)
from bcrsp.noise import dephasing_kraus, phase_flip_kraus, qudit_flip_kraus
from bcrsp.protocol import (
    PhaseVector,
    collapsed_state,
    correction_unitary,
    equatorial_state,
    fourier_basis,
    ghz_state,
    sender_basis,
)
from conftest import random_state


class TestStateVector:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="does not match dims"):
            StateVector((2, 2), np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector((2,), np.array([1.0, 1.0]))

    def test_rejects_length_mismatch_of_normalized_amplitudes(self):
        with pytest.raises(ValueError, match="does not match dims"):
            StateVector((2, 3), np.full(5, 1 / np.sqrt(5)))

    @pytest.mark.parametrize("offset", [2e-10, -2e-10])
    def test_rejects_norm_just_outside_tolerance(self, offset):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector((2, 2), np.full(4, 0.5) * (1 + offset))

    @pytest.mark.parametrize("offset", [5e-11, -5e-11])
    def test_accepts_norm_within_tolerance(self, offset):
        amps = np.full(4, 0.5j) * (1 + offset)
        assert StateVector((2, 2), amps).amplitudes[3] == amps[3]

    def test_unnormalized_flag_allows_intermediates(self):
        s = StateVector((2,), np.array([1.0, 1.0]), normalized=False)
        assert s.amplitudes[1] == 1.0

    def test_amplitudes_are_read_only(self):
        s = basis_state(3, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


NAN = float("nan")
NON_FINITE = {
    "nan-state": (lambda: StateVector((2,), [NAN, 0]), "not normalized"),
    "inf-state": (lambda: StateVector((2,), [np.inf, 0]), "not normalized"),
    "nan-unitary": (lambda: Operator(np.full((2, 2), NAN), unitary=True), "not unitary"),
    "nan-basis": (
        lambda: MeasurementBasis(
            2, tuple(StateVector((2,), [NAN, v], normalized=False) for v in (0, 1))
        ),
        "not orthonormal",
    ),
    "nan-kraus": (lambda: KrausSet(2, (Operator(np.full((2, 2), NAN)),)), "not complete"),
    "nan-weight": (lambda: BranchEnsemble(((NAN, basis_state(2, 0)),)), "sum to nan"),
}


@pytest.mark.parametrize("build,message", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_values_fail_tolerance_checks(build, message):
    # `dev > tol` is False for NaN; every check must reject it instead
    with pytest.raises(ValueError, match=message):
        build()


class TestTensor:
    def test_basis_states(self):
        out = tensor(basis_state(2, 0), basis_state(2, 0))
        assert out.dims == (2, 2)
        np.testing.assert_array_equal(out.amplitudes, [1, 0, 0, 0])

    def test_superposition_with_basis(self):
        plus = StateVector((2,), np.array([1.0, 1.0]) / np.sqrt(2))
        out = tensor(plus, basis_state(2, 0))
        np.testing.assert_allclose(
            out.amplitudes, np.array([1, 0, 1, 0]) / np.sqrt(2), atol=1e-15
        )

    def test_two_ghz_resources_by_index_enumeration(self):
        # oracle: amplitude 1/3 exactly when both triples are diagonal
        out = tensor(ghz_state(3), ghz_state(3))
        expected = np.zeros((3,) * 6, dtype=complex)
        for i in range(3):
            for j in range(3):
                expected[i, i, i, j, j, j] = 1.0 / 3.0
        assert out.amplitudes.shape == (729,)
        np.testing.assert_allclose(out.amplitudes, expected.reshape(-1), atol=1e-15)


@st.composite
def _layouts(draw):
    """Mixed subsystem dims and a subset of their axes in any order."""
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    order = draw(st.permutations(range(len(dims))))
    return dims, tuple(order[: draw(st.integers(1, len(dims)))])


def _random_tensor(rng, shape):
    """Complex Gaussian entries scaled to unit Frobenius norm."""
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return z / np.linalg.norm(z)


def _subscripts(dims, axes):
    """einsum letters: one per subsystem, and fresh ones in place of `axes`."""
    old = "abcd"[: len(dims)]
    fresh = "wxyz"[: len(axes)]
    swapped = list(old)
    for axis, letter in zip(axes, fresh):
        swapped[axis] = letter
    return old, "".join(swapped), "".join(old[a] for a in axes), fresh


class TestApplyOn:
    @given(layout=_layouts(), seed=st.integers(0, 2**32 - 1))
    @example(layout=((2, 3, 4), (2, 0)), seed=0)
    @settings(max_examples=60, deadline=None)
    def test_matches_einsum_oracle(self, layout, seed):
        dims, targets = layout
        rng = np.random.default_rng(seed)
        amps = _random_tensor(rng, dims)
        t_dims = tuple(dims[t] for t in targets)
        op = _random_tensor(rng, t_dims + t_dims)
        old, new, contracted, fresh = _subscripts(dims, targets)
        expected = np.einsum(f"{fresh}{contracted},{old}->{new}", op, amps)
        d_t = int(np.prod(t_dims))
        state = StateVector(dims, amps.reshape(-1), normalized=False)
        out = apply_on(Operator(op.reshape(d_t, d_t)), state, targets)
        np.testing.assert_allclose(out.tensor_view(), expected, rtol=0, atol=1e-12)

    def test_identity_leaves_state(self):
        state = tensor(ghz_state(2), basis_state(2, 1))
        out = apply_on(Operator(np.eye(2), unitary=True), state, 3)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_correction_phases_single_qutrit(self):
        out = apply_on(correction_unitary(1, 3), basis_state(3, 1), 0)
        np.testing.assert_allclose(
            out.amplitudes, [0, np.exp(2j * np.pi / 3), 0], atol=1e-15
        )

    def test_correction_recovers_collapsed_target(self):
        p = PhaseVector(3, (0.9, -2.4))
        out = apply_on(correction_unitary(1, 3), collapsed_state(p, 1), 0)
        np.testing.assert_allclose(
            out.amplitudes, equatorial_state(p).amplitudes, atol=1e-12
        )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="targets span dimension"):
            apply_on(Operator(np.eye(2)), ghz_state(3), 0)

    def test_two_site_targets(self):
        # swap embedded on qudits (0, 1) of |01x>
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        state = tensor(tensor(basis_state(2, 0), basis_state(2, 1)), basis_state(2, 0))
        out = apply_on(Operator(swap, unitary=True), state, (0, 1))
        expected = tensor(tensor(basis_state(2, 1), basis_state(2, 0)), basis_state(2, 0))
        np.testing.assert_array_equal(out.amplitudes, expected.amplitudes)


class TestProject:
    def test_basis_projection(self):
        prob, post = project(tensor(basis_state(2, 0), basis_state(2, 0)),
                             basis_state(2, 0), 0)
        assert prob == pytest.approx(1.0, abs=1e-15)
        assert post.dims == (2,)
        np.testing.assert_array_equal(post.amplitudes, [1, 0])

    @pytest.mark.parametrize("subsystem", [0, 1, 2])
    def test_ghz_onto_uniform_vector(self, subsystem):
        ghz = ghz_state(3)
        vec = fourier_basis(3).vectors[0]
        # oracle: direct inner-product computation on the dense tensor
        t = np.tensordot(vec.amplitudes.conj(), ghz.tensor_view(), axes=([0], [subsystem]))
        expected_prob = float(np.sum(np.abs(t) ** 2))
        prob, post = project(ghz, vec, subsystem)
        assert prob == pytest.approx(expected_prob, abs=1e-15)
        assert prob == pytest.approx(1.0 / 3.0, abs=1e-12)
        remainder = np.zeros(9, dtype=complex)
        remainder[[0, 4, 8]] = 1.0 / np.sqrt(3)
        np.testing.assert_allclose(post.amplitudes, remainder, atol=1e-12)

    def test_sequential_senders_collapse(self):
        # after the two sender measurements the four leftover qudits factor
        # into (A1, C1) and (B2, C2) sums over the controller's outcomes
        alice = PhaseVector(3, (0.7, -1.3))
        bob = PhaseVector(3, (2.1, 0.4))
        state = tensor(ghz_state(3), ghz_state(3))
        prob1, state = project(state, sender_basis(alice).vectors[1], 3)
        prob2, state = project(state, sender_basis(bob).vectors[1], 1)
        assert prob1 * prob2 == pytest.approx(1.0 / 9.0, abs=1e-12)
        four = fourier_basis(3)
        part_a = sum(
            np.kron(collapsed_state(bob, (m + 1) % 3).amplitudes, four.vectors[m].amplitudes)
            for m in range(3)
        ) / np.sqrt(3)
        part_b = sum(
            np.kron(collapsed_state(alice, (k + 1) % 3).amplitudes, four.vectors[k].amplitudes)
            for k in range(3)
        ) / np.sqrt(3)
        expected = np.kron(part_a, part_b)
        overlap = np.vdot(expected, state.amplitudes)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-10)

    def test_zero_probability_flagged(self):
        prob, post = project(tensor(basis_state(2, 0), basis_state(2, 0)),
                             basis_state(2, 1), 0)
        assert prob == 0.0
        assert post is None

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="subsystem dim"):
            project(ghz_state(3), basis_state(2, 0), 0)


class TestSingleTargetCheck:
    """project, projection_probabilities and measure reject the same targets
    with the same message; a negative index never wraps to the last qudit."""

    @pytest.mark.parametrize("target", [-1, 3])
    def test_projection_probabilities_rejects_out_of_range(self, target):
        with pytest.raises(ValueError, match=rf"target {target} out of range for dims \(3, 3, 3\)"):
            projection_probabilities(ghz_state(3), fourier_basis(3), target)

    @pytest.mark.parametrize("target", [-1, 3])
    def test_project_and_measure_reject_out_of_range(self, target):
        message = rf"target {target} out of range for dims \(3, 3, 3\)"
        with pytest.raises(ValueError, match=message):
            project(ghz_state(3), fourier_basis(3).vectors[0], target)
        with pytest.raises(ValueError, match=message):
            measure(ghz_state(3), fourier_basis(3), target, 0)


class TestMeasure:
    def test_eigenstate_is_deterministic(self):
        comp = MeasurementBasis(2, (basis_state(2, 0), basis_state(2, 1)))
        outcome, post = measure(tensor(basis_state(2, 0), basis_state(2, 1)), comp, 0, 0)
        assert outcome == 0
        np.testing.assert_array_equal(post.amplitudes, [0, 1])

    def test_born_frequencies_on_ghz(self):
        # binomial oracle: p = 1/3 per outcome, 3-sigma band over 10^5 draws
        trials = 100_000
        rng = np.random.default_rng(1234)
        ghz = ghz_state(3)
        basis = fourier_basis(3)
        counts = np.zeros(3, dtype=int)
        for _ in range(trials):
            outcome, _ = measure(ghz, basis, 0, rng)
            counts[outcome] += 1
        p = 1.0 / 3.0
        sigma = np.sqrt(p * (1 - p) / trials)
        np.testing.assert_allclose(counts / trials, p, atol=3 * sigma)

    def test_seed_replay(self):
        basis = fourier_basis(3)
        seq1 = [measure(ghz_state(3), basis, 0, np.random.default_rng(9))[0] for _ in range(20)]
        rng1 = np.random.default_rng(77)
        rng2 = np.random.default_rng(77)
        run1 = [measure(ghz_state(3), basis, 0, rng1)[0] for _ in range(50)]
        run2 = [measure(ghz_state(3), basis, 0, rng2)[0] for _ in range(50)]
        assert run1 == run2
        assert len(set(seq1)) == 1  # fresh generator with equal seed every call


class TestBornDraw:
    def test_born_draw_checks_before_drawing(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="negative"):
            born_draw(np.array([1.1, -0.1]), rng)
        with pytest.raises(ValueError, match="sum to"):
            born_draw(np.array([0.5, 0.4]), rng)
        # a roundoff negative is clipped to zero and never drawn
        assert all(born_draw(np.array([-1e-14, 1.0 + 1e-14]), rng) == 1 for _ in range(50))

    @staticmethod
    def _choice_draw(probs, rng):
        # the former born_draw body after its checks: `Generator.choice` on
        # the clipped, renormalized probabilities
        probs = np.maximum(probs, 0.0)
        probs = probs / probs.sum()
        return int(rng.choice(len(probs), p=probs))

    @staticmethod
    def _distributions(gen):
        for n in range(2, 41):
            yield np.full(n, 1.0 / n)
            yield np.eye(n)[gen.integers(n)]
            for _ in range(6):
                p = gen.exponential(size=n)
                p[gen.random(n) < 0.3] = 0.0
                p[gen.integers(n)] += 1e-3
                p /= p.sum()
                # roundoff negatives on some of the zero entries
                zeros = np.flatnonzero(p == 0.0)
                p[zeros[: len(zeros) // 2]] = -gen.uniform(0.0, 1e-14, len(zeros) // 2)
                yield p

    def test_born_draw_matches_generator_choice(self):
        gen = np.random.default_rng(2024)
        for case, probs in enumerate(self._distributions(gen)):
            seed = int(gen.integers(2**32))
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for draw in range(25):
                assert born_draw(probs, rng) == self._choice_draw(probs, ref), (case, draw)
                assert rng.bit_generator.state == ref.bit_generator.state

    def test_born_draw_matches_generator_choice_at_cdf_boundaries(self):
        # a uniform draw rarely lands within an ulp of a cumulative boundary;
        # peek at each seed's draw u and place boundaries on and next to it
        for seed in range(300):
            u = np.random.default_rng(seed).random()
            for b in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)):
                for probs in (
                    np.array([b, 1.0 - b]),
                    np.array([b, 0.0, 1.0 - b, 0.0]),
                    np.array([b / 3, b / 3, b / 3, (1 - b) / 2, (1 - b) / 2]),
                    np.array([0.0, b / 7, 6 * b / 7, -1e-15, 1.0 - b]),
                ):
                    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    assert born_draw(probs, rng) == self._choice_draw(probs, ref), (seed, probs)
                    assert rng.bit_generator.state == ref.bit_generator.state


class TestApplyKraus:
    def test_identity_channel_is_noop(self):
        chan = KrausSet(2, (Operator(np.eye(2, dtype=complex)),))
        ens = BranchEnsemble.pure(tensor(basis_state(2, 0), basis_state(2, 1)))
        out = apply_kraus(ens, chan, 0)
        assert len(out.branches) == 1
        w, s = out.branches[0]
        assert w == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_array_equal(s.amplitudes, ens.branches[0][1].amplitudes)

    def test_flip_channel_at_zero_strength(self):
        ens = BranchEnsemble.pure(equatorial_state(PhaseVector(4, (0.3, 0.6, 0.9))))
        out = apply_kraus(ens, qudit_flip_kraus(0.0, 4), 0)
        assert len(out.branches) == 1
        assert fidelity(ens.branches[0][1], out) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("make_channel", [qudit_flip_kraus, dephasing_kraus, phase_flip_kraus])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_dense_density_oracle(self, make_channel, dim):
        # oracle: rho' = sum_l (I (x) E_l) rho (I (x) E_l)+ by dense arithmetic
        rng = np.random.default_rng(dim * 101)
        state = StateVector((dim, dim), random_state(rng, dim * dim))
        chan = make_channel(0.45, dim)
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        expected = np.zeros_like(rho)
        for op in chan.operators:
            big = np.kron(np.eye(dim), op.entries)
            expected += big @ rho @ big.conj().T
        out = apply_kraus(BranchEnsemble.pure(state), chan, 1)
        np.testing.assert_allclose(out.density_matrix(), expected, atol=1e-10)

    @pytest.mark.parametrize("make_channel", [qudit_flip_kraus, dephasing_kraus, phase_flip_kraus])
    def test_total_weight_preserved(self, make_channel):
        rng = np.random.default_rng(5)
        state = StateVector((4, 4), random_state(rng, 16))
        for gamma in np.linspace(0.0, 1.0, 20):
            out = apply_kraus(BranchEnsemble.pure(state), make_channel(gamma, 4), 0)
            assert sum(w for w, _ in out.branches) == pytest.approx(1.0, abs=1e-12)

    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError, match="not complete"):
            KrausSet(2, (Operator(0.5 * np.eye(2, dtype=complex)),))


class TestFidelity:
    def test_pure_self(self):
        psi = equatorial_state(PhaseVector(3, (0.2, 1.9)))
        assert fidelity(psi, BranchEnsemble.pure(psi)) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert fidelity(basis_state(2, 0), BranchEnsemble.pure(basis_state(2, 1))) == 0.0

    def test_single_channel_use_against_density_oracle(self):
        # one pass of the shift-and-phase channel on the flat 4-level state;
        # only the identity branch overlaps the target, so F = sqrt(1 - 3g/4)
        gamma = 0.4
        target = equatorial_state(PhaseVector.zero(4))
        ens = apply_kraus(BranchEnsemble.pure(target), phase_flip_kraus(gamma, 4), 0)
        dense = fidelity_density(target, ens.density_matrix())
        assert fidelity(target, ens) == pytest.approx(dense, abs=1e-12)
        assert fidelity(target, ens) == pytest.approx(np.sqrt(1 - 3 * gamma / 4), abs=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fidelity(basis_state(2, 0), BranchEnsemble.pure(basis_state(3, 0)))

    @given(lam=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_squared_fidelity_is_convex_in_mixing(self, lam):
        rng = np.random.default_rng(31)
        psi = StateVector((3,), random_state(rng, 3))
        a = StateVector((3,), random_state(rng, 3))
        b = StateVector((3,), random_state(rng, 3))
        ens_a = BranchEnsemble.pure(a)
        ens_b = BranchEnsemble.pure(b)
        if lam in (0.0, 1.0):
            mixed = ens_a if lam == 1.0 else ens_b
        else:
            mixed = BranchEnsemble(((lam, a), (1.0 - lam, b)))
        lhs = fidelity(psi, mixed) ** 2
        rhs = lam * fidelity(psi, ens_a) ** 2 + (1 - lam) * fidelity(psi, ens_b) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestInvariants:
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_unitaries_preserve_norm(self, n, seed):
        rng = np.random.default_rng(seed)
        state = StateVector((n,), random_state(rng, n))
        out = apply_on(Operator(random_unitary(rng, n), unitary=True), state, 0)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_measurement_completeness(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        state = StateVector((n, n), random_state(rng, n * n))
        basis = fourier_basis(n)
        probs = projection_probabilities(state, basis, int(rng.integers(0, 2)))
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    @given(layout=_layouts(), seed=st.integers(0, 2**32 - 1))
    @example(layout=((2, 3, 4), (2, 0)), seed=0)
    @settings(max_examples=60, deadline=None)
    def test_reduced_density_matches_einsum_oracle(self, layout, seed):
        dims, keep = layout
        amps = _random_tensor(np.random.default_rng(seed), dims)
        old, new, kept, fresh = _subscripts(dims, keep)
        d_keep = int(np.prod([dims[k] for k in keep]))
        expected = np.einsum(f"{old},{new}->{kept}{fresh}", amps, amps.conj())
        rho = reduced_density(StateVector(dims, amps.reshape(-1), normalized=False), keep)
        np.testing.assert_allclose(rho, expected.reshape(d_keep, d_keep), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("keep", [-1, 3, (0, 0)])
    def test_reduced_density_rejects_bad_subsystems(self, keep):
        with pytest.raises(ValueError, match="bad target subsystems"):
            reduced_density(ghz_state(3), keep)

    def test_reduced_density_of_product_is_pure(self):
        psi = equatorial_state(PhaseVector(3, (1.0, 2.0)))
        state = tensor(psi, basis_state(3, 2))
        rho = reduced_density(state, 0)
        np.testing.assert_allclose(
            rho, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-12
        )

    def test_reduced_density_of_ghz_is_maximally_mixed(self):
        rho = reduced_density(ghz_state(4), 1)
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-12)

    def test_states_equal_ignores_global_phase(self):
        psi = equatorial_state(PhaseVector(3, (0.4, 0.8)))
        rotated = StateVector((3,), np.exp(1j * 1.23) * psi.amplitudes)
        assert states_equal(psi, rotated)
        assert not states_equal(psi, basis_state(3, 0))
