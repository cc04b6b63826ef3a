import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcrsp import noise
from bcrsp.core import BranchEnsemble, apply_kraus, fidelity_density, project, tensor
from bcrsp.noise import (
    DISTRIBUTED_SITES,
    NoiseKind,
    OutcomePolicy,
    closed_form_fidelity,
    compare_paper_vs_exact,
    dephasing_kraus,
    exact_fidelities,
    kraus_for,
    noisy_protocol_run,
    paper_fidelity_dephasing,
    paper_fidelity_phaseflip_equatorial,
    phase_flip_kraus,
    qudit_flip_kraus,
)
from bcrsp.protocol import (
    OutcomeTuple,
    PhaseVector,
    all_outcomes,
    apply_corrections,
    equatorial_state,
    fourier_basis,
    ghz_state,
    phase_table,
    sender_basis,
)
from conftest import random_phase_vector

ZERO4 = PhaseVector.zero(4)


def exact_phaseflip_equatorial(gamma: float) -> float:
    """Analytic value of the exact outcome-averaged fidelity, derived by
    branch-survival counting: both channel uses on a site's partners must
    be clean, or their phase indices must cancel mod 4 (probability 1/3
    given both noisy)."""
    return float(np.sqrt((1 - 3 * gamma / 4) ** 2 + 3 * gamma**2 / 16))


def exact_dephasing_equatorial(gamma: float) -> float:
    """Analytic value from the weighted branch census of the two diagonal
    channel uses feeding one site."""
    return float(np.sqrt((8 - 9 * gamma + 3 * gamma**2) / 8))


class TestKrausSets:
    def test_flip_zero_strength_is_identity_only(self):
        chan = qudit_flip_kraus(0.0, 4)
        assert len(chan.operators) == 1
        np.testing.assert_array_equal(chan.operators[0].entries, np.eye(4))

    def test_flip_coefficients(self):
        gamma = 0.52
        chan = qudit_flip_kraus(gamma, 4)
        assert len(chan.operators) == 4
        np.testing.assert_allclose(
            chan.operators[0].entries, np.sqrt(1 - 3 * gamma / 4) * np.eye(4), atol=1e-15
        )
        shift1 = np.zeros((4, 4))
        for j in range(4):
            shift1[(j + 1) % 4, j] = 1.0
        np.testing.assert_allclose(
            chan.operators[1].entries, np.sqrt(gamma / 4) * shift1, atol=1e-15
        )

    def test_flip_full_strength_coefficients(self):
        chan = qudit_flip_kraus(1.0, 4)
        assert len(chan.operators) == 4
        for op in chan.operators:
            np.testing.assert_allclose(np.abs(op.entries[op.entries != 0]), 0.5, atol=1e-15)

    def test_dephasing_zero_strength(self):
        chan = dephasing_kraus(0.0, 4)
        assert len(chan.operators) == 1
        np.testing.assert_array_equal(chan.operators[0].entries, np.eye(4))

    def test_dephasing_full_strength(self):
        chan = dephasing_kraus(1.0, 4)
        np.testing.assert_allclose(
            chan.operators[0].entries, np.diag([1.0, 0, 0, 0]), atol=1e-15
        )
        for s, op in enumerate(chan.operators[1:], start=1):
            expected = np.zeros((4, 4))
            expected[s, s] = 1.0
            np.testing.assert_allclose(op.entries, expected, atol=1e-15)

    def test_dephasing_generic_form(self):
        gamma = 0.3
        chan = dephasing_kraus(gamma, 4)
        np.testing.assert_allclose(
            chan.operators[0].entries,
            np.diag([1.0] + [np.sqrt(1 - gamma)] * 3),
            atol=1e-15,
        )

    def test_phase_flip_operator_count(self):
        assert len(phase_flip_kraus(0.0, 4).operators) == 1
        assert len(phase_flip_kraus(0.4, 4).operators) == 10
        assert len(phase_flip_kraus(1.0, 4).operators) == 10

    def test_phase_flip_spot_operator(self):
        # phase index 1, shift index 1: sqrt(g/12) sum_j e^{i pi j/2}|j+1><j|
        gamma = 0.6
        chan = phase_flip_kraus(gamma, 4)
        expected = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            expected[(j + 1) % 4, j] = np.exp(1j * np.pi * j / 2)
        np.testing.assert_allclose(
            chan.operators[1].entries, np.sqrt(gamma / 12) * expected, atol=1e-12
        )

    def test_phase_flip_completeness_tight(self):
        chan = phase_flip_kraus(0.6, 4)
        assert chan.completeness_deviation(chan.operators) <= 1e-12

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_completeness_across_grid(self, kind):
        for gamma in np.linspace(0.0, 1.0, 20):
            chan = kraus_for(kind, gamma, 4)
            assert chan.completeness_deviation(chan.operators) <= 1e-10

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_gamma_range_enforced(self, kind):
        with pytest.raises(ValueError, match="outside"):
            kraus_for(kind, 1.5, 4)
        with pytest.raises(ValueError, match="outside"):
            kraus_for(kind, -0.1, 4)


def reference_kraus(kind: NoiseKind, gamma: float, n: int) -> np.ndarray:
    """Operator-by-operator construction of each channel, the form the Kraus
    stack replaced; the stack must reproduce it bit for bit."""
    col = np.arange(n)

    def shift(s, phases=None):
        mat = np.zeros((n, n), dtype=complex)
        mat[(col + s) % n, col] = 1.0 if phases is None else phases
        return mat

    if kind is NoiseKind.DEPHASING:
        diag = np.concatenate(([1.0], np.full(n - 1, np.sqrt(1 - gamma))))
        ops = [np.diag(diag).astype(complex)]
        for s in range(1, n) if gamma > 0 else ():
            mat = np.zeros((n, n), dtype=complex)
            mat[s, s] = np.sqrt(gamma)
            ops.append(mat)
        return np.array(ops)
    ops = [np.sqrt(1 - (n - 1) * gamma / n) * np.eye(n, dtype=complex)]
    if gamma > 0 and kind is NoiseKind.QUDIT_FLIP:
        ops.extend(np.sqrt(gamma / n) * shift(s) for s in range(1, n))
    elif gamma > 0:
        table = np.exp(2j * np.pi * (np.outer(col, col) % n) / n)
        coef = np.sqrt(gamma / (n * (n - 1)))
        ops.extend(coef * shift(b, phases) for phases in table[1:] for b in range(1, n))
    return np.array(ops)


BUILDERS = {
    NoiseKind.QUDIT_FLIP: qudit_flip_kraus,
    NoiseKind.DEPHASING: dephasing_kraus,
    NoiseKind.QUDIT_PHASE_FLIP: phase_flip_kraus,
}


class TestKrausStack:
    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_public_builders_equal_raw_stack_bitwise(self, kind):
        for n in range(2, 17):
            for gamma in (0.0, 0.123456, 0.37, 1.0):
                stack = noise._kraus_stack(kind, gamma, n)
                assert stack.tobytes() == reference_kraus(kind, gamma, n).tobytes()
                for chan in (BUILDERS[kind](gamma, n), kraus_for(kind, gamma, n)):
                    ops = np.array([op.entries for op in chan.operators])
                    assert ops.shape == stack.shape
                    assert ops.tobytes() == stack.tobytes()

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_corrupted_shape_is_not_complete(self, kind, monkeypatch):
        # one operator short of the channel
        count = noise._kraus_count
        monkeypatch.setattr(noise, "_kraus_count", lambda *args: count(*args) - 1)
        with pytest.raises(ValueError, match="not complete"):
            noise._kraus_stack(kind, 0.5, 4)
        # the evaluator checks its twirl weights instead: T(I) = I
        twirl = noise._twirl

        def corrupted(kind, gamma, n):
            weights, lags = twirl(kind, gamma, n)
            return weights * 1.1, lags

        monkeypatch.setattr(noise, "_twirl", corrupted)
        with pytest.raises(ValueError, match="not complete"):
            noisy_protocol_run(ZERO4, ZERO4, 4, kind, 0.5)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_nan_channel_is_not_complete(self, kind, monkeypatch):
        # a NaN deviation fails both completeness checks instead of slipping past
        monkeypatch.setattr(noise, "_check_gamma", float)
        with pytest.raises(ValueError, match="not complete"):
            noise._kraus_stack(kind, float("nan"), 4)
        twirl = noise._twirl

        def poisoned(kind, gamma, n):
            weights, lags = twirl(kind, gamma, n)
            return weights * np.nan, lags

        monkeypatch.setattr(noise, "_twirl", poisoned)
        with pytest.raises(ValueError, match="not complete"):
            noisy_protocol_run(ZERO4, ZERO4, 4, kind, 0.5)


def stack_factors(rows: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """F[r, s, a, q] = sum_i w[r, i, s, a] conj(w[r, i, s, q]), summed over the
    Kraus stack `ops`: the evaluator's factors before the closed-form twirls.

    Here w[r, i, s] = U_s (<r_s| K_i)^T and rows[r] holds the conjugated basis
    vectors <r_s| of measured slot r. For the GHZ leg sum_a |aaa>/sqrt(N), the
    kept qudit after outcomes (s, t) on its two measured slots and the
    correction U_{s+t} is F_s * G_t / N, elementwise: U_{s+t} = U_s U_t is
    diagonal, so conjugating by it multiplies entry (a, q) by a phase that
    splits between the two slots.
    """
    w = phase_table(rows.shape[-1]) * (rows[:, None] @ ops)
    return np.einsum("risa,risq->rsaq", w, w.conj())


def stack_marginals(alice, bob, n, kind, gamma, policy, cond):
    """(rho_a1, rho_b2) from the Kraus-stack factors, O(K N^4) per run."""
    # measured slots: C1 and C2 (Fourier basis), B1 (Bob's basis), A2 (Alice's basis)
    bases = (fourier_basis(n), sender_basis(bob), sender_basis(alice))
    rows = np.stack([basis.matrix().conj() for basis in bases])
    factors = stack_factors(rows, noise._kraus_stack(kind, gamma, n))
    if policy is OutcomePolicy.CONDITIONED:
        rhos = factors[[1, 2], [cond.n, cond.l]] * factors[0, [cond.m, cond.k]] / n
        return rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    sums = factors.sum(axis=1)
    return sums[1:] * sums[0] / n


@st.composite
def noisy_cases(draw):
    n = draw(st.integers(2, 16))
    phases = st.tuples(*[st.floats(0.0, 2 * np.pi)] * (n - 1))
    return (
        PhaseVector(n, draw(phases)),
        PhaseVector(n, draw(phases)),
        n,
        draw(st.sampled_from(list(NoiseKind))),
        draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        draw(st.sampled_from(list(OutcomePolicy))),
        OutcomeTuple(*draw(st.tuples(*[st.integers(0, n - 1)] * 4))),
    )


class TestClosedFormTwirls:
    @settings(max_examples=80, deadline=None)
    @given(noisy_cases())
    @example((ZERO4, ZERO4, 4, NoiseKind.QUDIT_PHASE_FLIP, 1.0, OutcomePolicy.AVERAGED,
              OutcomeTuple(0, 0, 0, 0)))
    @example((PhaseVector(16, (0.3,) * 15), PhaseVector(16, (1.9,) * 15), 16,
              NoiseKind.DEPHASING, 0.0, OutcomePolicy.CONDITIONED, OutcomeTuple(15, 3, 0, 7)))
    def test_twirls_equal_kraus_stack_oracle(self, case):
        run = noisy_protocol_run(*case)
        rho_a1, rho_b2 = stack_marginals(*case)
        np.testing.assert_allclose(run.rho_a1, rho_a1, rtol=0, atol=1e-13)
        np.testing.assert_allclose(run.rho_b2, rho_b2, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_branch_count_is_kraus_count_to_the_fourth(self, kind):
        for n in (2, 3, 4, 7, 16):
            for gamma in (0.0, 0.37, 1.0):
                run = noisy_protocol_run(PhaseVector.zero(n), PhaseVector.zero(n), n, kind, gamma)
                count = len(noise._kraus_stack(kind, gamma, n))
                assert run.diagnostics["branch_count"] == count**4

    def test_piece_cache_is_keyed_by_target_pair_only(self):
        rng = np.random.default_rng(41)
        alice, bob = random_phase_vector(5, rng), random_phase_vector(5, rng)
        noise._twirl_pieces.cache_clear()
        calls = 0
        for kind in NoiseKind:
            for gamma in (0.0, 0.1, 0.37, 1.0):
                for policy in OutcomePolicy:
                    noisy_protocol_run(alice, bob, 5, kind, gamma, policy)
                    calls += 1
        info = noise._twirl_pieces.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, calls - 1, 1)
        assert all(not a.flags.writeable for a in noise._twirl_pieces(alice, bob, 5))

    def test_hermiticity_is_exact(self):
        rng = np.random.default_rng(43)
        for n in range(2, 17):
            alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
            oc = OutcomeTuple(*(int(v) for v in rng.integers(0, n, 4)))
            for kind in NoiseKind:
                for policy in OutcomePolicy:
                    for gamma in (0.0, 0.37, float(rng.uniform()), 1.0):
                        diag = noisy_protocol_run(alice, bob, n, kind, gamma, policy, oc).diagnostics
                        assert diag["hermiticity_a1"] == 0.0
                        assert diag["hermiticity_b2"] == 0.0


def naive_noisy_marginals(alice, bob, n, kind, gamma, conditioned=None):
    """Independent slow-path oracle: explicit branch ensemble via apply_kraus,
    then per-branch sequential projection over outcome tuples."""
    ens = BranchEnsemble.pure(tensor(ghz_state(n), ghz_state(n)))
    chan = kraus_for(kind, gamma, n)
    for site in DISTRIBUTED_SITES:
        ens = apply_kraus(ens, chan, site)
    bases = {
        "l": sender_basis(alice),
        "n": sender_basis(bob),
        "m": fourier_basis(n),
        "k": fourier_basis(n),
    }
    plan = (("l", 3), ("n", 1), ("m", 1), ("k", 2))
    outcomes = [conditioned] if conditioned else list(all_outcomes(n))
    rho_a1 = np.zeros((n, n), dtype=complex)
    rho_b2 = np.zeros((n, n), dtype=complex)
    total = 0.0
    for w, state in ens.branches:
        for oc in outcomes:
            indices = {"l": oc.l, "n": oc.n, "m": oc.m, "k": oc.k}
            s, p = state, w
            for slot, axis in plan:
                pr, s = project(s, bases[slot].vectors[indices[slot]], axis)
                if s is None:
                    p = 0.0
                    break
                p *= pr
            if p == 0.0:
                continue
            s = apply_corrections(s, (oc.m + oc.n) % n, (oc.k + oc.l) % n, n)
            m = s.amplitudes.reshape(n, n)
            rho_a1 += p * (m @ m.conj().T)
            rho_b2 += p * (m.T @ m.conj())
            total += p
    return rho_a1 / total, rho_b2 / total


class TestExactEvaluator:
    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_zero_strength_is_pure_and_perfect(self, kind):
        rng = np.random.default_rng(71)
        alice, bob = random_phase_vector(4, rng), random_phase_vector(4, rng)
        run = noisy_protocol_run(alice, bob, 4, kind, 0.0)
        assert len(run.a1_ensemble.branches) == 1
        f_a1 = fidelity_density(equatorial_state(bob), run.a1_ensemble.density_matrix())
        f_b2 = fidelity_density(equatorial_state(alice), run.b2_ensemble.density_matrix())
        assert f_a1 == pytest.approx(1.0, abs=1e-12)
        assert f_b2 == pytest.approx(1.0, abs=1e-12)

    def test_flip_unity_for_flat_target(self, quditflip_sweep):
        for gamma, (f_a1, f_b2) in quditflip_sweep.items():
            assert f_a1 == pytest.approx(1.0, abs=1e-10), f"gamma={gamma}"
            assert f_b2 == pytest.approx(1.0, abs=1e-10), f"gamma={gamma}"

    def test_phase_flip_matches_branch_census(self, phaseflip_sweep):
        for gamma, (f_a1, f_b2) in phaseflip_sweep.items():
            expected = exact_phaseflip_equatorial(gamma)
            assert f_a1 == pytest.approx(expected, abs=1e-10), f"gamma={gamma}"
            assert f_b2 == pytest.approx(expected, abs=1e-10), f"gamma={gamma}"

    def test_dephasing_matches_branch_census(self, dephasing_sweep):
        for gamma, (f_a1, f_b2) in dephasing_sweep.items():
            expected = exact_dephasing_equatorial(gamma)
            assert f_a1 == pytest.approx(expected, abs=1e-10), f"gamma={gamma}"
            assert f_b2 == pytest.approx(expected, abs=1e-10), f"gamma={gamma}"

    def test_fidelities_stay_in_unit_interval(self, phaseflip_sweep, dephasing_sweep):
        for sweep in (phaseflip_sweep, dephasing_sweep):
            for f_a1, f_b2 in sweep.values():
                assert -1e-12 <= f_a1 <= 1 + 1e-12
                assert -1e-12 <= f_b2 <= 1 + 1e-12

    def test_averaged_traces_are_unit(self):
        run = noisy_protocol_run(ZERO4, ZERO4, 4, NoiseKind.DEPHASING, 0.4)
        assert run.diagnostics["trace_a1"] == pytest.approx(1.0, abs=1e-12)
        assert run.diagnostics["trace_b2"] == pytest.approx(1.0, abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(13)
        alice, bob = random_phase_vector(4, rng), random_phase_vector(4, rng)
        fa1, fb1 = exact_fidelities(alice, bob, 4, NoiseKind.DEPHASING, 0.37)
        fa2, fb2 = exact_fidelities(bob, alice, 4, NoiseKind.DEPHASING, 0.37)
        assert fa1 == pytest.approx(fb2, abs=1e-12)
        assert fb1 == pytest.approx(fa2, abs=1e-12)

    def test_branch_counts_reported(self):
        run = noisy_protocol_run(ZERO4, ZERO4, 4, NoiseKind.QUDIT_PHASE_FLIP, 0.2)
        assert run.diagnostics["branch_count"] == 10**4

    @pytest.mark.parametrize("policy", list(OutcomePolicy))
    def test_invariant_residuals_reported(self, policy):
        rng = np.random.default_rng(17)
        alice, bob = random_phase_vector(4, rng), random_phase_vector(4, rng)
        run = noisy_protocol_run(
            alice, bob, 4, NoiseKind.DEPHASING, 0.6, policy=policy,
            conditioned_outcome=OutcomeTuple(2, 1, 3, 0),
        )
        diag = run.diagnostics
        for name, rho in (("a1", run.rho_a1), ("b2", run.rho_b2)):
            assert diag[f"hermiticity_{name}"] == np.max(np.abs(rho - rho.conj().T))
            assert diag[f"hermiticity_{name}"] <= 1e-14
            assert diag[f"min_eigenvalue_{name}"] == pytest.approx(
                np.min(np.linalg.eigvalsh(rho)), abs=1e-15
            )
            assert diag[f"min_eigenvalue_{name}"] >= -1e-14
            assert diag[f"trace_error_{name}"] == pytest.approx(
                abs(np.trace(rho) - 1.0), abs=1e-15
            )
            assert diag[f"trace_error_{name}"] <= 1e-12

    @pytest.mark.parametrize("policy", list(OutcomePolicy))
    def test_batched_residuals_equal_per_leg_values(self, policy):
        rng = np.random.default_rng(29)
        for n in (2, 3, 4, 5):
            for kind in NoiseKind:
                alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
                oc = OutcomeTuple(*(int(v) for v in rng.integers(0, n, 4)))
                run = noisy_protocol_run(alice, bob, n, kind, 0.37, policy, oc)
                diag = run.diagnostics
                for name, rho in (("a1", run.rho_a1), ("b2", run.rho_b2)):
                    assert diag[f"trace_{name}"] == float(np.real(np.trace(rho)))
                    assert diag[f"hermiticity_{name}"] == float(
                        np.max(np.abs(rho - rho.conj().T))
                    )
                    assert diag[f"min_eigenvalue_{name}"] == float(
                        np.min(np.linalg.eigvalsh(rho))
                    )
                    assert diag[f"trace_error_{name}"] == float(abs(np.trace(rho) - 1.0))

    @pytest.mark.parametrize("n", [5, 6])
    def test_sizes_beyond_history_enumeration(self, n):
        # (N^2-2N+2)^4 Kraus histories: 83,521 at N=5 and 456,976 at N=6
        rng = np.random.default_rng(n)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        run = noisy_protocol_run(alice, bob, n, NoiseKind.QUDIT_PHASE_FLIP, 0.5)
        assert run.diagnostics["branch_count"] == (n * n - 2 * n + 2) ** 4
        for rho in (run.rho_a1, run.rho_b2):
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
        flat = PhaseVector.zero(n)
        f_a1, f_b2 = exact_fidelities(flat, flat, n, NoiseKind.QUDIT_FLIP, 0.7)
        assert f_a1 == pytest.approx(1.0, abs=1e-10)
        assert f_b2 == pytest.approx(1.0, abs=1e-10)


class TestAgainstNaiveOracle:
    def test_flip_qubit_averaged(self):
        rng = np.random.default_rng(3)
        alice, bob = random_phase_vector(2, rng), random_phase_vector(2, rng)
        run = noisy_protocol_run(alice, bob, 2, NoiseKind.QUDIT_FLIP, 0.37)
        rho_a1, rho_b2 = naive_noisy_marginals(alice, bob, 2, NoiseKind.QUDIT_FLIP, 0.37)
        np.testing.assert_allclose(run.rho_a1, rho_a1, atol=1e-10)
        np.testing.assert_allclose(run.rho_b2, rho_b2, atol=1e-10)

    def test_phase_flip_qubit_averaged(self):
        rng = np.random.default_rng(4)
        alice, bob = random_phase_vector(2, rng), random_phase_vector(2, rng)
        run = noisy_protocol_run(alice, bob, 2, NoiseKind.QUDIT_PHASE_FLIP, 0.61)
        rho_a1, rho_b2 = naive_noisy_marginals(
            alice, bob, 2, NoiseKind.QUDIT_PHASE_FLIP, 0.61
        )
        np.testing.assert_allclose(run.rho_a1, rho_a1, atol=1e-10)
        np.testing.assert_allclose(run.rho_b2, rho_b2, atol=1e-10)

    def test_dephasing_four_level_conditioned(self):
        rng = np.random.default_rng(6)
        alice, bob = random_phase_vector(4, rng), random_phase_vector(4, rng)
        oc = OutcomeTuple(0, 0, 0, 0)
        run = noisy_protocol_run(
            alice, bob, 4, NoiseKind.DEPHASING, 0.3,
            policy=OutcomePolicy.CONDITIONED, conditioned_outcome=oc,
        )
        rho_a1, rho_b2 = naive_noisy_marginals(
            alice, bob, 4, NoiseKind.DEPHASING, 0.3, conditioned=oc
        )
        np.testing.assert_allclose(run.rho_a1, rho_a1, atol=1e-10)
        np.testing.assert_allclose(run.rho_b2, rho_b2, atol=1e-10)

    def test_phase_flip_qutrit_conditioned_off_zero(self):
        rng = np.random.default_rng(8)
        alice, bob = random_phase_vector(3, rng), random_phase_vector(3, rng)
        oc = OutcomeTuple(1, 2, 0, 1)
        run = noisy_protocol_run(
            alice, bob, 3, NoiseKind.QUDIT_PHASE_FLIP, 0.5,
            policy=OutcomePolicy.CONDITIONED, conditioned_outcome=oc,
        )
        rho_a1, _ = naive_noisy_marginals(
            alice, bob, 3, NoiseKind.QUDIT_PHASE_FLIP, 0.5, conditioned=oc
        )
        np.testing.assert_allclose(run.rho_a1, rho_a1, atol=1e-10)

    def test_flip_qutrit_averaged(self):
        rng = np.random.default_rng(9)
        alice, bob = random_phase_vector(3, rng), random_phase_vector(3, rng)
        run = noisy_protocol_run(alice, bob, 3, NoiseKind.QUDIT_FLIP, 0.44)
        rho_a1, rho_b2 = naive_noisy_marginals(alice, bob, 3, NoiseKind.QUDIT_FLIP, 0.44)
        np.testing.assert_allclose(run.rho_a1, rho_a1, atol=1e-10)
        np.testing.assert_allclose(run.rho_b2, rho_b2, atol=1e-10)

    def test_phase_flip_four_level_conditioned_off_zero(self):
        rng = np.random.default_rng(10)
        alice, bob = random_phase_vector(4, rng), random_phase_vector(4, rng)
        oc = OutcomeTuple(1, 2, 3, 1)
        run = noisy_protocol_run(
            alice, bob, 4, NoiseKind.QUDIT_PHASE_FLIP, 0.45,
            policy=OutcomePolicy.CONDITIONED, conditioned_outcome=oc,
        )
        rho_a1, rho_b2 = naive_noisy_marginals(
            alice, bob, 4, NoiseKind.QUDIT_PHASE_FLIP, 0.45, conditioned=oc
        )
        np.testing.assert_allclose(run.rho_a1, rho_a1, atol=1e-10)
        np.testing.assert_allclose(run.rho_b2, rho_b2, atol=1e-10)


class TestClosedForms:
    def test_dephasing_reference_endpoints(self):
        assert paper_fidelity_dephasing(0.0) == pytest.approx(1.0, abs=1e-12)
        assert paper_fidelity_dephasing(1.0) == pytest.approx(0.25, abs=1e-12)

    def test_dephasing_reference_midpoint(self):
        # direct numerical evaluation of the quoted expression
        assert paper_fidelity_dephasing(0.5) == pytest.approx(0.7026650429, abs=1e-9)

    def test_phase_flip_reference_values(self):
        assert paper_fidelity_phaseflip_equatorial(0.0) == 1.0
        assert paper_fidelity_phaseflip_equatorial(0.4) == pytest.approx(0.7, abs=1e-15)
        assert paper_fidelity_phaseflip_equatorial(1.0) == pytest.approx(0.25, abs=1e-15)

    def test_reference_forms_validate_gamma(self):
        with pytest.raises(ValueError):
            paper_fidelity_dephasing(2.0)
        with pytest.raises(ValueError):
            paper_fidelity_phaseflip_equatorial(-0.5)

    def test_closed_form_selection(self):
        assert closed_form_fidelity(NoiseKind.QUDIT_FLIP, ZERO4, 0.8) == 1.0
        assert closed_form_fidelity(NoiseKind.QUDIT_FLIP, PhaseVector(4, (1, 2, 3)), 0.8) is None
        assert closed_form_fidelity(NoiseKind.QUDIT_PHASE_FLIP, ZERO4, 0.4) == pytest.approx(0.7)
        assert closed_form_fidelity(NoiseKind.DEPHASING, ZERO4, 0.5) == pytest.approx(
            paper_fidelity_dephasing(0.5)
        )


class TestComparisonReport:
    def test_flip_flat_target_has_no_flags(self, quditflip_sweep):
        report = compare_paper_vs_exact(
            NoiseKind.QUDIT_FLIP, ZERO4, ZERO4, [0.0, 0.5, 1.0]
        )
        assert report.flagged_rows == ()
        for row in report.rows:
            assert row.paper == 1.0
            assert row.deviation <= 1e-10

    def test_zero_gamma_row_always_agrees(self):
        for kind in NoiseKind:
            report = compare_paper_vs_exact(kind, ZERO4, ZERO4, [0.0])
            row = report.rows[0]
            assert row.paper is not None
            assert row.deviation <= 1e-10
            assert not row.flagged

    def test_phase_flip_flags_carry_branch_breakdown(self):
        # exact mixture evolution departs from the quoted linear law away
        # from gamma = 0; the report must expose that with branch detail
        report = compare_paper_vs_exact(
            NoiseKind.QUDIT_PHASE_FLIP, ZERO4, ZERO4, [0.0, 0.4]
        )
        assert not report.rows[0].flagged
        row = report.rows[1]
        assert row.flagged
        assert row.deviation == pytest.approx(
            exact_phaseflip_equatorial(0.4) - 0.7, abs=1e-10
        )
        assert row.a1_branches
        weights = [w for w, _ in row.a1_branches]
        assert sum(weights) == pytest.approx(1.0, abs=1e-10)

    def test_dephasing_report_emitted_with_reference_column(self):
        report = compare_paper_vs_exact(
            NoiseKind.DEPHASING, ZERO4, ZERO4, [0.0, 0.5, 1.0]
        )
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.paper == pytest.approx(paper_fidelity_dephasing(row.gamma))
            assert row.deviation is not None


class TestPolicies:
    def test_conditioned_probabilities_sum_to_one(self):
        rng = np.random.default_rng(21)
        alice, bob = random_phase_vector(3, rng), random_phase_vector(3, rng)
        total = sum(
            noisy_protocol_run(
                alice, bob, 3, NoiseKind.QUDIT_PHASE_FLIP, 0.5,
                policy=OutcomePolicy.CONDITIONED, conditioned_outcome=oc,
            ).diagnostics["outcome_probability"]
            for oc in all_outcomes(3)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_conditioned_outputs_are_the_averaged_ones(self):
        # the corrections make every outcome tuple give the same outputs
        rng = np.random.default_rng(47)
        for n in range(2, 9):
            alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
            for kind in NoiseKind:
                for gamma in (0.0, 1.0, float(rng.uniform())):
                    oc = OutcomeTuple(*(int(v) for v in rng.integers(0, n, 4)))
                    avg = noisy_protocol_run(alice, bob, n, kind, gamma)
                    cond = noisy_protocol_run(
                        alice, bob, n, kind, gamma, OutcomePolicy.CONDITIONED, oc
                    )
                    assert cond.rho_a1.tobytes() == avg.rho_a1.tobytes()
                    assert cond.rho_b2.tobytes() == avg.rho_b2.tobytes()
                    assert cond.diagnostics["outcome_probability"] == 1 / n**4

    def test_conditioned_diagnostics(self):
        run = noisy_protocol_run(
            ZERO4, ZERO4, 4, NoiseKind.QUDIT_FLIP, 0.5,
            policy=OutcomePolicy.CONDITIONED,
        )
        assert run.diagnostics["conditioned_outcome"] == (0, 0, 0, 0)
        # flip errors only relabel the uniform outcome lattice
        assert run.diagnostics["outcome_probability"] == pytest.approx(1 / 256, abs=1e-12)

    def test_conditioned_equals_averaged_for_flip_flat_target(self):
        cond = noisy_protocol_run(
            ZERO4, ZERO4, 4, NoiseKind.QUDIT_FLIP, 0.7, policy=OutcomePolicy.CONDITIONED
        )
        f = fidelity_density(equatorial_state(ZERO4), cond.a1_ensemble.density_matrix())
        assert f == pytest.approx(1.0, abs=1e-10)
