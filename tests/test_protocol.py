import copy
import dataclasses
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcrsp import noise, protocol
from bcrsp.cli import main
from bcrsp.core import (
    ATOL,
    MeasurementBasis,
    StateVector,
    born_cdf,
    born_draw,
    measure,
    project,
    same_ray,
)
from bcrsp.noise import NoiseKind, kraus_for
from bcrsp.optics import (
    controller_basis_matrix,
    correction_circuit,
    ghz_via_cnot,
    verify_correction_circuits,
)
from bcrsp.protocol import (
    PROTOCOL_ORDER,
    ProtocolResult,
    CorrectionRule,
    OutcomeTuple,
    PhaseVector,
    all_outcomes,
    build_correction_table,
    channel_state,
    correction_unitary,
    equatorial_state,
    fourier_basis,
    ghz_state,
    leg_state,
    outcome_probability,
    phase_table,
    run_protocol,
    sender_basis,
    verify_decomposition,
)
from bcrsp.session import SessionStatus, new_session
from conftest import random_phase_vector
from dense import cnot_gate, corrected_result

W3 = np.exp(2j * np.pi / 3)


def assert_same_ray(actual: np.ndarray, expected: np.ndarray, atol=1e-10):
    """Entrywise equality up to one global phase."""
    overlap = np.vdot(expected, actual)
    assert abs(abs(overlap) - 1.0) <= atol
    phase = overlap / abs(overlap)
    np.testing.assert_allclose(actual, phase * expected, atol=atol)


class TestStates:
    def test_equatorial_flat(self):
        out = equatorial_state(PhaseVector.zero(3))
        np.testing.assert_allclose(out.amplitudes, np.ones(3) / np.sqrt(3), atol=1e-15)

    def test_equatorial_qutrit_phases(self):
        d1, d2 = 0.7, -1.3
        out = equatorial_state(PhaseVector(3, (d1, d2)))
        expected = np.array([1, np.exp(1j * d1), np.exp(1j * d2)]) / np.sqrt(3)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_equatorial_four_level_phases(self):
        e1, e2, e3 = 0.4, 1.1, 2.8
        out = equatorial_state(PhaseVector(4, (e1, e2, e3)))
        expected = np.array([1, np.exp(1j * e1), np.exp(1j * e2), np.exp(1j * e3)]) / 2
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_equatorial_state_is_cached_and_read_only(self):
        p = PhaseVector(5, (0.3, 1.7, 2.2, 5.9))
        cached = equatorial_state(p)
        assert equatorial_state(PhaseVector(5, (0.3, 1.7, 2.2, 5.9))) is cached
        assert protocol._TARGETS[p].state is cached
        fresh = protocol._TargetRecord(p).state
        assert fresh is not cached
        assert fresh.dims == cached.dims
        assert cached.amplitudes.tobytes() == fresh.amplitudes.tobytes()
        assert not cached.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            cached.amplitudes[0] = 0.0
        with pytest.raises(AttributeError):
            cached.amplitudes = np.zeros(5, dtype=complex)

    def test_each_target_is_built_once_for_every_caller(self, tmp_path, monkeypatch):
        # phases no other test uses, so no cache built on the targets holds them yet
        phases = {"alice_phases": [0.123, 4.567], "bob_phases": [2.345, 0.678]}
        alice, bob = (PhaseVector(3, tuple(phases[key])) for key in phases)
        checked = []
        monkeypatch.setattr(protocol, "same_ray", lambda a, b: checked.append(b) or same_ray(a, b))
        protocol._TARGETS.clear()
        run_protocol(alice, bob, 3, OutcomeTuple(1, 2, 0, 1))
        records = dict(protocol._TARGETS)
        states = {target: record.state for target, record in records.items()}
        assert set(records) == {alice, bob}
        run = noise.noisy_protocol_run(alice, bob, 3, NoiseKind.DEPHASING, 0.3)
        noise.run_fidelities(run, alice, bob)
        pieces = {target: record.pieces for target, record in records.items()}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dimension": 3, **phases, "trials": 2, "seed": 1}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 0
        # every caller read the two records the first run built, and no part twice
        assert dict(protocol._TARGETS) == records
        for target, record in records.items():
            assert record.state is states[target] and record.pieces is pieces[target]
        # each outcome entry is checked once, when it is built, against its
        # record's target: A1's entries on Bob's record, B2's on Alice's
        for target, record in records.items():
            ours = [b for b in checked if b is equatorial_state(target).amplitudes]
            assert len(ours) == len(record.outcomes) >= 1
        assert len(checked) == sum(len(record.outcomes) for record in records.values())

    def test_ghz_qubit(self):
        out = ghz_state(2)
        expected = np.zeros(8)
        expected[[0, 7]] = 1 / np.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 4])
    def test_ghz_diagonal_amplitudes(self, n):
        out = ghz_state(n).tensor_view()
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    expected = 1 / np.sqrt(n) if i == j == k else 0.0
                    assert out[i, j, k] == pytest.approx(expected, abs=1e-15)

    def test_ghz_rejects_degenerate_dimension(self):
        with pytest.raises(ValueError):
            ghz_state(1)


class TestBases:
    def test_sender_qutrit_row_one(self):
        d1, d2 = 0.7, -1.3
        vec = sender_basis(PhaseVector(3, (d1, d2))).vectors[1]
        expected = np.array(
            [1, W3 * np.exp(-1j * d1), W3**2 * np.exp(-1j * d2)]
        ) / np.sqrt(3)
        np.testing.assert_allclose(vec.amplitudes, expected, atol=1e-12)

    def test_sender_four_level_row_two(self):
        e = (0.4, 1.1, 2.8)
        vec = sender_basis(PhaseVector(4, e)).vectors[2]
        expected = np.array(
            [
                1,
                np.exp(1j * np.pi) * np.exp(-1j * e[0]),
                np.exp(2j * np.pi) * np.exp(-1j * e[1]),
                np.exp(1j * np.pi) * np.exp(-1j * e[2]),
            ]
        ) / 2
        np.testing.assert_allclose(vec.amplitudes, expected, atol=1e-12)

    def test_sender_with_zero_phases_is_fourier(self):
        for n in (2, 3, 4, 5):
            s = sender_basis(PhaseVector.zero(n)).matrix()
            f = fourier_basis(n).matrix()
            np.testing.assert_allclose(s, f, atol=1e-12)

    def test_fourier_qutrit_rows(self):
        m = fourier_basis(3).matrix() * np.sqrt(3)
        np.testing.assert_allclose(m[0], [1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(m[1], [1, W3, W3**2], atol=1e-12)
        np.testing.assert_allclose(m[2], [1, W3**2, W3], atol=1e-12)

    def test_fourier_four_level_rows(self):
        m = fourier_basis(4).matrix() * 2
        np.testing.assert_allclose(m[1], [1, 1j, -1, -1j], atol=1e-12)
        np.testing.assert_allclose(m[2], [1, -1, 1, -1], atol=1e-12)
        np.testing.assert_allclose(m[3], [1, -1j, -1, 1j], atol=1e-12)

    def test_fourier_qubit(self):
        m = fourier_basis(2).matrix() * np.sqrt(2)
        np.testing.assert_allclose(m, [[1, 1], [1, -1]], atol=1e-12)

    @given(n=st.integers(2, 16), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_families_stay_orthonormal(self, n, seed):
        rng = np.random.default_rng(seed)
        m = sender_basis(random_phase_vector(n, rng)).matrix()
        gram = m @ m.conj().T
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
        f = fourier_basis(n).matrix()
        assert np.max(np.abs(f @ f.conj().T - np.eye(n))) <= 1e-10

    def test_bases_are_views_of_the_engine_bras(self):
        # the validated bases and the optical controller matrix hold the
        # engine's bras conjugated, bit for bit, and `_collapsed_rows`, which
        # the decomposition check derives on its own, gives the sender's bras
        rng = np.random.default_rng(2064)
        for n in range(2, 65):
            four = protocol._fourier_bras(n).conj()
            assert np.array_equal(fourier_basis(n).matrix(), four), n
            assert np.array_equal(controller_basis_matrix(n), four), n
            for _ in range(4):
                p = random_phase_vector(n, rng)
                bras = protocol._TARGETS[p].bras
                assert np.array_equal(sender_basis(p).matrix(), bras.conj()), n
                assert np.array_equal(protocol._collapsed_rows(p), bras), n

    @pytest.mark.parametrize("n", [3, 16])
    def test_engine_builds_no_basis_object(self, n, monkeypatch):
        # every engine path reads the raw bras; each path gets a target pair
        # no other test uses, so its caches start cold
        built = []
        check = MeasurementBasis.__post_init__

        def counted(basis):
            built.append(basis.dim)
            check(basis)

        monkeypatch.setattr(MeasurementBasis, "__post_init__", counted)
        rng = np.random.default_rng(7100 + n)

        def fresh_pair():
            return random_phase_vector(n, rng), random_phase_vector(n, rng)

        oc = OutcomeTuple(n - 1, 1, 0, n // 2)
        run_protocol(*fresh_pair(), n, outcome=oc)
        run_protocol(*fresh_pair(), n, rng=5)
        assert new_session(*fresh_pair(), n, seed=6).run_to_completion() is SessionStatus.COMPLETED
        outcome_probability(n, oc)
        assert verify_decomposition(*fresh_pair(), n)
        assert built == []
        sender_basis(fresh_pair()[0])
        assert built == [n]


class TestCorrections:
    def test_identity_for_zero_index(self):
        for n in (2, 3, 4, 7):
            np.testing.assert_array_equal(
                correction_unitary(0, n).entries, np.eye(n, dtype=complex)
            )

    def test_qutrit_indices(self):
        np.testing.assert_allclose(
            correction_unitary(1, 3).entries, np.diag([1, W3, W3**2]), atol=1e-15
        )
        np.testing.assert_allclose(
            correction_unitary(2, 3).entries, np.diag([1, W3**2, W3]), atol=1e-15
        )

    def test_four_level_index_three(self):
        expected = np.diag(
            [1, np.exp(3j * np.pi / 2), np.exp(1j * np.pi), np.exp(1j * np.pi / 2)]
        )
        np.testing.assert_allclose(correction_unitary(3, 4).entries, expected, atol=1e-15)

    @given(n=st.integers(2, 9), a=st.integers(0, 8), b=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_index_addition_algebra(self, n, a, b):
        a, b = a % n, b % n
        product = correction_unitary(a, n).entries @ correction_unitary(b, n).entries
        expected = correction_unitary((a + b) % n, n).entries
        np.testing.assert_allclose(product, expected, atol=1e-12)


class TestCollapsedState:
    def test_qutrit_index_one(self):
        d1, d2 = 0.7, -1.3
        out = protocol._collapsed_rows(PhaseVector(3, (d1, d2)))[1]
        expected = np.array(
            [1, np.exp(4j * np.pi / 3) * np.exp(1j * d1), np.exp(2j * np.pi / 3) * np.exp(1j * d2)]
        ) / np.sqrt(3)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_four_level_index_one(self):
        e = (0.4, 1.1, 2.8)
        out = protocol._collapsed_rows(PhaseVector(4, e))[1]
        expected = np.array(
            [
                1,
                np.exp(3j * np.pi / 2) * np.exp(1j * e[0]),
                np.exp(1j * np.pi) * np.exp(1j * e[1]),
                np.exp(1j * np.pi / 2) * np.exp(1j * e[2]),
            ]
        ) / 2
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_index_zero_is_the_target(self):
        p = PhaseVector(4, (0.4, 1.1, 2.8))
        np.testing.assert_allclose(
            protocol._collapsed_rows(p)[0], equatorial_state(p).amplitudes, atol=1e-15
        )

    def test_correction_closes_the_loop(self):
        p = PhaseVector(5, (0.1, 0.9, 1.7, 2.5))
        for idx, row in enumerate(protocol._collapsed_rows(p)):
            fixed = correction_unitary(idx, 5).entries @ row
            np.testing.assert_allclose(fixed, equatorial_state(p).amplitudes, atol=1e-12)


class TestRunProtocol:
    def test_qutrit_worked_example(self):
        # forced outcome (l=1, n=1, m=0, k=1) with generic phases: the
        # pre-correction kets carry e^{i4pi/3}, e^{i2pi/3} (A1 side) and
        # e^{i2pi/3}, e^{i4pi/3} (B2 side) alongside the target phases
        d = (0.7, -1.3)
        dt = (2.1, 0.4)
        res = run_protocol(
            PhaseVector(3, d), PhaseVector(3, dt), 3, outcome=OutcomeTuple(1, 1, 0, 1)
        )
        a1_expected = np.array(
            [1, np.exp(4j * np.pi / 3) * np.exp(1j * dt[0]), np.exp(2j * np.pi / 3) * np.exp(1j * dt[1])]
        ) / np.sqrt(3)
        b2_expected = np.array(
            [1, np.exp(2j * np.pi / 3) * np.exp(1j * d[0]), np.exp(4j * np.pi / 3) * np.exp(1j * d[1])]
        ) / np.sqrt(3)
        assert_same_ray(res.a1_before.amplitudes, a1_expected)
        assert_same_ray(res.b2_before.amplitudes, b2_expected)
        assert res.corrections == CorrectionRule(a1_index=1, b2_index=2)
        assert res.recovered == (True, True)

    def test_four_level_worked_example(self):
        eta = (0.4, 1.1, 2.8)
        eta_t = (1.9, 0.2, 2.3)
        res = run_protocol(
            PhaseVector(4, eta), PhaseVector(4, eta_t), 4, outcome=OutcomeTuple(2, 2, 0, 1)
        )
        a1_expected = np.array(
            [
                1,
                np.exp(1j * np.pi) * np.exp(1j * eta_t[0]),
                np.exp(2j * np.pi) * np.exp(1j * eta_t[1]),
                np.exp(1j * np.pi) * np.exp(1j * eta_t[2]),
            ]
        ) / 2
        b2_expected = np.array(
            [
                1,
                np.exp(1j * np.pi / 2) * np.exp(1j * eta[0]),
                np.exp(1j * np.pi) * np.exp(1j * eta[1]),
                np.exp(3j * np.pi / 2) * np.exp(1j * eta[2]),
            ]
        ) / 2
        assert_same_ray(res.a1_before.amplitudes, a1_expected)
        assert_same_ray(res.b2_before.amplitudes, b2_expected)
        assert res.corrections == CorrectionRule(a1_index=2, b2_index=3)
        assert res.recovered == (True, True)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_all_zero_outcome_needs_no_correction(self, n):
        rng = np.random.default_rng(n)
        res = run_protocol(
            random_phase_vector(n, rng),
            random_phase_vector(n, rng),
            n,
            outcome=OutcomeTuple(0, 0, 0, 0),
        )
        assert res.corrections == CorrectionRule(0, 0)
        assert res.recovered == (True, True)

    def test_seeded_sampling_replays(self):
        a = PhaseVector(3, (0.5, 1.5))
        b = PhaseVector(3, (2.5, 0.1))
        r1 = run_protocol(a, b, 3, rng=11)
        r2 = run_protocol(a, b, 3, rng=11)
        assert r1.outcome == r2.outcome
        np.testing.assert_array_equal(r1.alice_final.amplitudes, r2.alice_final.amplitudes)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="protocol dim"):
            run_protocol(PhaseVector.zero(3), PhaseVector.zero(4), 4)

    @given(n=st.integers(2, 5), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_random_outcomes_always_recover(self, n, seed):
        rng = np.random.default_rng(seed)
        oc = OutcomeTuple(*(int(v) for v in rng.integers(0, n, 4)))
        res = run_protocol(
            random_phase_vector(n, rng), random_phase_vector(n, rng), n, outcome=oc
        )
        assert res.recovered == (True, True)


class TestOutcomeProbability:
    def _direct_probability(self, n, oc, alice, bob):
        # independent oracle: one joint contraction on the dense channel,
        # register order (A1, B1, C1, A2, B2, C2)
        vl = sender_basis(alice).vectors[oc.l].amplitudes.conj()
        vn = sender_basis(bob).vectors[oc.n].amplitudes.conj()
        vm = fourier_basis(n).vectors[oc.m].amplitudes.conj()
        vk = fourier_basis(n).vectors[oc.k].amplitudes.conj()
        amp = np.einsum(
            "d,b,c,f,abcdef->ae", vl, vn, vm, vk, channel_state(n).tensor_view()
        )
        return float(np.sum(np.abs(amp) ** 2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_uniform_over_all_tuples(self, n):
        rng = np.random.default_rng(n + 10)
        alice = random_phase_vector(n, rng)
        bob = random_phase_vector(n, rng)
        total = 0.0
        for oc in all_outcomes(n):
            p = outcome_probability(n, oc)
            assert p == pytest.approx(1.0 / n**4, abs=1e-10)
            direct = self._direct_probability(n, oc, alice, bob)
            assert p == pytest.approx(direct, abs=1e-10)
            total += p
        assert total == pytest.approx(1.0, abs=1e-10)


class TestCorrectionTable:
    def test_row_counts(self):
        assert len(build_correction_table(2)) == 16
        assert len(build_correction_table(3)) == 81
        assert len(build_correction_table(4)) == 256

    def test_qutrit_spot_rows(self):
        table = build_correction_table(3)
        assert table[OutcomeTuple(1, 1, 0, 1)] == CorrectionRule(1, 2)
        assert table[OutcomeTuple(0, 0, 0, 0)] == CorrectionRule(0, 0)

    def test_four_level_spot_row(self):
        assert build_correction_table(4)[OutcomeTuple(2, 2, 0, 1)] == CorrectionRule(2, 3)

    def test_table_agrees_with_protocol_runs(self):
        rng = np.random.default_rng(0)
        a, b = random_phase_vector(3, rng), random_phase_vector(3, rng)
        table = build_correction_table(3)
        for oc in all_outcomes(3):
            assert run_protocol(a, b, 3, outcome=oc).corrections == table[oc]


def six_qudit_decomposition_deviation(alice, bob, n):
    """Oracle: the four-basis expansion summed over all N^4 tuples.

    (1/N^2) sum of tau-bar_k (x) tau_l (x) tau-bar_m (x) tau~_n (x)
    z~_{m+n} (x) z_{k+l}, one kron per term in the global
    (A1, B1, C1, A2, B2, C2) order, against GHZ (x) GHZ.
    """
    send_a = sender_basis(alice)
    send_b = sender_basis(bob)
    four = fourier_basis(n)
    kept_a1, kept_b2 = protocol._collapsed_rows(bob), protocol._collapsed_rows(alice)
    acc = np.zeros(n**6, dtype=complex)
    for oc in all_outcomes(n):
        parts = (
            kept_a1[(oc.m + oc.n) % n],                            # A1
            send_b.vectors[oc.n].amplitudes,                       # B1
            four.vectors[oc.m].amplitudes,                         # C1
            send_a.vectors[oc.l].amplitudes,                       # A2
            kept_b2[(oc.k + oc.l) % n],                            # B2
            four.vectors[oc.k].amplitudes,                         # C2
        )
        term = parts[0]
        for part in parts[1:]:
            term = np.kron(term, part)
        acc += term
    acc /= n**2
    return float(np.max(np.abs(acc - channel_state(n).amplitudes)))


class TestDecomposition:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_phases(self, n):
        rng = np.random.default_rng(17 * n)
        chk = verify_decomposition(random_phase_vector(n, rng), random_phase_vector(n, rng), n)
        assert bool(chk)
        assert chk.max_deviation <= 1e-10

    def test_zero_phases_qubit(self):
        chk = verify_decomposition(PhaseVector.zero(2), PhaseVector.zero(2), 2)
        assert bool(chk)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_six_qudit_oracle(self, n):
        rng = np.random.default_rng(23 * n)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        assert six_qudit_decomposition_deviation(alice, bob, n) <= ATOL
        chk = verify_decomposition(alice, bob, n)
        assert bool(chk)
        assert chk.max_deviation <= ATOL

    def test_dimensions_five_to_sixteen(self):
        rng = np.random.default_rng(5)
        for n in range(5, 17):
            chk = verify_decomposition(
                random_phase_vector(n, rng), random_phase_vector(n, rng), n
            )
            assert bool(chk), n
            assert chk.max_deviation <= ATOL, n

    def test_wrong_collapse_sign_is_flagged(self, monkeypatch):
        # with e^{+i 2pi j idx/N} in place of e^{-i 2pi j idx/N} the kept
        # qudits no longer sum back to GHZ, so the check must fail
        n = 3
        rng = np.random.default_rng(8)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        monkeypatch.setattr(
            protocol,
            "_collapsed_rows",
            lambda p: phase_table(p.dim) * np.exp(1j * p.full()) / np.sqrt(p.dim),
        )
        chk = verify_decomposition(alice, bob, n)
        assert not chk
        assert chk.max_deviation > 0.1


class TestPhaseShiftCovariance:
    def test_shifting_phases_relabels_outcomes(self):
        # adding 2 pi j s / N to the sender's phases rotates her basis rows
        # by s, shifts the B2 collapse correspondingly, and leaves the state
        # prepared at A1 untouched; checked exhaustively at N=3
        n, s = 3, 1
        rng = np.random.default_rng(99)
        alice = random_phase_vector(n, rng)
        bob = random_phase_vector(n, rng)
        shifted = PhaseVector(
            n, tuple(t + 2 * np.pi * j * s / n for j, t in enumerate(alice.phases, start=1))
        )
        base_rows = sender_basis(alice).matrix()
        shift_rows = sender_basis(shifted).matrix()
        np.testing.assert_allclose(shift_rows, np.roll(base_rows, s, axis=0), atol=1e-10)
        for oc in all_outcomes(n):
            res_shift = run_protocol(shifted, bob, n, outcome=oc)
            rolled = OutcomeTuple((oc.l - s) % n, oc.n, oc.m, oc.k)
            res_base = run_protocol(alice, bob, n, outcome=rolled)
            # A1 receives bob's state either way
            assert same_ray(res_shift.alice_final_amps, res_base.alice_final_amps)
            # B2 collapses onto the same ray before correction
            assert same_ray(res_shift.b2_before_amps, res_base.b2_before_amps)


class TestValidation:
    def test_phase_vector_length(self):
        with pytest.raises(ValueError, match="need 2 phases"):
            PhaseVector(3, (0.0,))

    def test_phase_vector_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PhaseVector(3, (np.inf, 0.0))

    def test_phase_vector_hash_is_the_dataclass_hash_stored_once(self):
        p = PhaseVector(4, (0.1, np.float64(0.2), 3))
        q = PhaseVector(4, [0.1, 0.2, 3.0])
        assert p == q and hash(p) == hash(q) == hash((4, (0.1, 0.2, 3.0)))
        assert PhaseVector(3, (0.0, -0.0)) == PhaseVector.zero(3)
        assert hash(PhaseVector(3, (0.0, -0.0))) == hash(PhaseVector.zero(3))
        assert p != PhaseVector(4, (0.1, 0.2, 3.5))
        assert repr(p) == "PhaseVector(dim=4, phases=(0.1, 0.2, 3.0))"
        assert [f.name for f in dataclasses.fields(p)] == ["dim", "phases"]
        assert dataclasses.astuple(p) == (4, (0.1, 0.2, 3.0))
        for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert twin == p and hash(twin) == hash(p) and repr(twin) == repr(p)
        # equal targets share one record
        assert protocol._TARGETS[p] is protocol._TARGETS[q]
        assert protocol._TARGETS[p].pieces is protocol._TARGETS[q].pieces
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.dim = 5

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_every_dimension_below_two_gives_one_message(self, n):
        for call in (
            lambda: PhaseVector(n, ()),
            lambda: ghz_state(n),
            lambda: fourier_basis(n),
            lambda: build_correction_table(n),
            lambda: cnot_gate(n),
            lambda: ghz_via_cnot(n),
            lambda: correction_unitary(0, n),
            lambda: correction_circuit(0, n),
            lambda: verify_correction_circuits(n),
            lambda: controller_basis_matrix(n),
            *(lambda kind=kind: kraus_for(kind, 0.5, n) for kind in NoiseKind),
        ):
            with pytest.raises(ValueError, match=rf"^dimension must be at least 2, got {n}$"):
                call()

    def test_outcome_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            OutcomeTuple(3, 0, 0, 0).validate(3)

    @pytest.mark.parametrize("index", [True, False, np.bool_(True), 1.0, np.float64(0.0), "1"])
    @pytest.mark.parametrize("slot", range(4))
    def test_outcome_index_must_be_an_integer(self, index, slot):
        values = [0, 0, 0, 0]
        values[slot] = index
        oc = OutcomeTuple(*values)
        zero = PhaseVector.zero(3)
        for call in (
            lambda: oc.validate(3),
            lambda: outcome_probability(3, oc),
            lambda: run_protocol(zero, zero, 3, outcome=oc),
        ):
            with pytest.raises(ValueError, match=r"outcome index [lnmk]=.* is not an integer"):
                call()

    def test_numpy_integer_indices_are_accepted(self):
        # `bcrsp verify` builds its tuples from rng.integers
        oc = OutcomeTuple(*np.arange(4, dtype=np.int64))
        oc.validate(4)
        assert outcome_probability(4, oc) == pytest.approx(1 / 4**4)

    def test_correction_index_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            correction_unitary(4, 4)


class TensordotEngine:
    """Oracle: the protocol run on dense three-qudit `StateVector` legs.

    Each leg is a full (kept, sender, controller) state, started from
    ghz_state(n), and every slot is one contraction on axis 1 through the
    public `core.project`/`core.measure`; nothing assumes that a leg stays
    diagonal.
    """

    def __init__(self, alice, bob, n):
        self.n = n
        four = fourier_basis(n)
        self.bases = {"l": sender_basis(alice), "n": sender_basis(bob), "m": four, "k": four}
        self.legs = [ghz_state(n), ghz_state(n)]
        self.outcomes = {}
        self.probability = 1.0

    def force(self, outcome):
        for slot, leg in PROTOCOL_ORDER:
            index = getattr(outcome, slot)
            prob, self.legs[leg] = project(self.legs[leg], self.bases[slot].vectors[index], 1)
            self.outcomes[slot] = index
            self.probability *= prob
        return self

    def sample(self, slots, rng):
        for slot, leg in slots:
            self.outcomes[slot], self.legs[leg] = measure(self.legs[leg], self.bases[slot], 1, rng)
        return self

    def finals(self):
        """Corrected A1 and B2 amplitudes: U_{m+n} and U_{k+l}."""
        o, table = self.outcomes, phase_table(self.n)
        return (
            table[(o["m"] + o["n"]) % self.n] * self.legs[0].amplitudes,
            table[(o["k"] + o["l"]) % self.n] * self.legs[1].amplitudes,
        )


def _assert_matches_oracle(res, oracle):
    alice_final, bob_final = oracle.finals()
    np.testing.assert_allclose(res.alice_final.amplitudes, alice_final, rtol=0, atol=1e-15)
    np.testing.assert_allclose(res.bob_final.amplitudes, bob_final, rtol=0, atol=1e-15)


class TestDiagonalLegsAgainstTensordotOracle:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_forced_runs(self, n):
        # every tuple up to N=4, a seeded slice of tuples above
        rng = np.random.default_rng(300 + n)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        tuples = all_outcomes(n) if n <= 4 else [
            OutcomeTuple(*(int(v) for v in rng.integers(0, n, 4))) for _ in range(24)
        ]
        for oc in tuples:
            res = run_protocol(alice, bob, n, outcome=oc)
            oracle = TensordotEngine(alice, bob, n).force(oc)
            _assert_matches_oracle(res, oracle)
            assert res.probability == pytest.approx(oracle.probability, rel=0, abs=1e-15)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_seeded_runs_draw_the_same_tuples(self, n):
        rng = np.random.default_rng(500 + n)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        for seed in range(200):
            res = run_protocol(alice, bob, n, rng=seed)
            oracle = TensordotEngine(alice, bob, n).sample(
                PROTOCOL_ORDER, np.random.default_rng(seed)
            )
            assert res.outcome == OutcomeTuple(**oracle.outcomes), seed
            _assert_matches_oracle(res, oracle)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("consents", [True, False])
    def test_session_leg_views(self, n, consents):
        # Session.legs rebuilds each leg as a tensor of its unmeasured qudits
        rng = np.random.default_rng(700 + n)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        for seed in range(5):
            ses = new_session(alice, bob, n, charlie_consents=consents, seed=seed)
            oracle = TensordotEngine(alice, bob, n)
            oracle_rng = np.random.default_rng(seed)
            for step in range(3):
                if step == 1:
                    oracle.sample(PROTOCOL_ORDER[:2], oracle_rng)
                elif step == 2 and consents:
                    oracle.sample(PROTOCOL_ORDER[2:], oracle_rng)
                for view, expected in zip(ses.legs, oracle.legs):
                    assert view.dims == expected.dims
                    np.testing.assert_allclose(
                        view.amplitudes, expected.amplitudes, rtol=0, atol=1e-15
                    )
                if step < 2:
                    ses.advance()


def slot_bras(alice, bob, n) -> dict:
    """Per slot, the conjugated rows of its measurement basis; row i is outcome i."""
    four = fourier_basis(n).matrix().conj()
    return {
        "l": sender_basis(alice).matrix().conj(),
        "n": sender_basis(bob).matrix().conj(),
        "m": four,
        "k": four,
    }


def channel_legs(n: int) -> list:
    """The two fresh GHZ legs, [A1·B1·C1, B2·A2·C2], as read-only diagonals."""
    return [protocol._ghz_diagonal(n)] * 2


def sequential_forced_run(alice, bob, n, outcome) -> ProtocolResult:
    """Oracle: the four slots projected one after another on fresh legs.

    Each forced slot collapses its leg's diagonal in protocol order, the
    joint probability is the running product, and `corrected_result`
    corrects the remainders; no outcome table or entry is read.
    """
    bras = slot_bras(alice, bob, n)
    legs = channel_legs(n)
    joint = 1.0
    for slot, leg in PROTOCOL_ORDER:
        prob, legs[leg] = protocol._project_leg(legs[leg], bras[slot][getattr(outcome, slot)])
        assert legs[leg] is not None
        joint *= prob
    return corrected_result(alice, bob, outcome, legs, joint)


def assert_same_result(res, expected, probability=True):
    """Bit-for-bit equality of two results: values, types and amplitude bytes."""
    assert res.outcome == expected.outcome
    assert res.corrections == expected.corrections
    assert res.recovered == expected.recovered
    assert [type(flag) for flag in res.recovered] == [bool, bool]
    if probability:
        assert type(res.probability) is type(expected.probability) is float
        assert res.probability.hex() == expected.probability.hex()
    for field in ("a1_before_amps", "b2_before_amps", "alice_final_amps", "bob_final_amps"):
        got, want = getattr(res, field), getattr(expected, field)
        assert got.shape == want.shape and got.dtype == want.dtype, field
        assert got.tobytes() == want.tobytes(), field


class TestLegTables:
    @given(n=st.integers(2, 16), seed=st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_forced_runs_equal_sequential_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        for _ in range(8):
            oc = OutcomeTuple(*(int(v) for v in rng.integers(0, n, 4)))
            expected = sequential_forced_run(alice, bob, n, oc)
            assert_same_result(run_protocol(alice, bob, n, outcome=oc), expected)
            zero = PhaseVector.zero(n)
            oracle = sequential_forced_run(zero, zero, n, oc).probability
            assert outcome_probability(n, oc).hex() == oracle.hex()

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_forced_run_equals_session_result(self, n):
        rng = np.random.default_rng(900 + n)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        for seed in range(20):
            ses = new_session(alice, bob, n, charlie_consents=True, seed=seed)
            ses.run_to_completion()
            drawn = ses.result()
            res = run_protocol(alice, bob, n, outcome=drawn.outcome)
            assert_same_result(res, drawn, probability=False)
            assert res.probability == pytest.approx(drawn.probability, rel=1e-12)

    def test_cache_is_keyed_by_target_only(self):
        n = 4
        rng = np.random.default_rng(41)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        protocol._TARGETS.clear()
        run_protocol(alice, bob, n, outcome=OutcomeTuple(0, 0, 0, 0))
        legs = {target: protocol._TARGETS[target].leg for target in (alice, bob)}
        for oc in all_outcomes(n):
            run_protocol(alice, bob, n, outcome=oc)
            run_protocol(PhaseVector(n, alice.phases), bob, n, outcome=oc)
        assert set(protocol._TARGETS) == {alice, bob}
        for target in (alice, bob):
            assert protocol._TARGETS[target].leg is legs[target]
            for arr in legs[target]:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr.reshape(-1)[0] = 0

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_results_do_not_share_memory_with_the_cache(self, n):
        # a kept result must not pin a cached table after the cache drops it;
        # it holds only its own read-only N-vectors, which its two outcome
        # entries share: (n, m) = (0, n - 1) on Bob's record, (l, k) = (1, 1)
        # on Alice's
        rng = np.random.default_rng(43 + n)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        res = run_protocol(alice, bob, n, outcome=OutcomeTuple(1, 0, n - 1, 1))
        tables = [protocol._TARGETS[alice].leg, protocol._TARGETS[bob].leg]
        a1 = protocol._TARGETS[bob].outcomes[(0, n - 1)]
        b2 = protocol._TARGETS[alice].outcomes[(1, 1)]
        assert [res.a1_before_amps, res.alice_final_amps] == [a1[1], a1[2]]
        assert [res.b2_before_amps, res.bob_final_amps] == [b2[1], b2[2]]
        for field in ("a1_before", "b2_before", "alice_final", "bob_final"):
            amps = getattr(res, field).amplitudes
            assert not amps.flags.writeable, field
            for arr in (arr for table in tables for arr in table):
                assert not np.shares_memory(amps, arr), field

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_each_leg_outcome_is_projected_once(self, n, monkeypatch):
        # A1's result depends on (n, m) and B2's on (l, k): the N^4 tuples
        # make one controller projection per leg outcome, 2 N^2 with the
        # senders' `leg` rows built, and a second pass makes none
        rng = np.random.default_rng(4500 + n)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        expected = [sequential_forced_run(alice, bob, n, oc) for oc in all_outcomes(n)]
        protocol._TARGETS.clear()
        protocol._TARGETS[alice].leg, protocol._TARGETS[bob].leg
        calls = []
        project_leg = protocol._project_leg
        monkeypatch.setattr(
            protocol, "_project_leg", lambda *args: calls.append(args) or project_leg(*args)
        )
        for repeat, made in ((0, 2 * n * n), (1, 0)):
            calls.clear()
            for oc, want in zip(all_outcomes(n), expected):
                assert_same_result(run_protocol(alice, bob, n, outcome=oc), want)
            assert len(calls) == made, repeat
        assert {len(protocol._TARGETS[t].outcomes) for t in (alice, bob)} == {n * n}

    def test_numpy_outcomes_hit_the_int_entries(self):
        # `bcrsp verify` passes np.int64 outcome indices; they read the same
        # entries as int indices, which are kept under int keys
        n = 3
        rng = np.random.default_rng(4510)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        protocol._TARGETS.clear()
        first = {}
        for oc in all_outcomes(n):
            wide = OutcomeTuple(*np.array(oc.as_tuple(), dtype=np.int64))
            first[oc] = run_protocol(alice, bob, n, outcome=wide)
        entries = {t: dict(protocol._TARGETS[t].outcomes) for t in (alice, bob)}
        for record in entries.values():
            assert len(record) == n * n
            assert {type(i) for key in record for i in key} == {int}
        for oc in all_outcomes(n):
            res = run_protocol(alice, bob, n, outcome=oc)
            assert_same_result(res, first[oc])
            assert res.a1_before_amps is first[oc].a1_before_amps
            assert res.b2_before_amps is first[oc].b2_before_amps
        for target, record in entries.items():
            held = protocol._TARGETS[target].outcomes
            assert held.keys() == record.keys()
            assert all(held[key] is entry for key, entry in record.items())


def per_draw_sample(bras, weights, legs, drawn, slots, rng):
    """Oracle: sampled slots drawn from Born probabilities computed per draw.

    Each slot's Born probabilities are one matvec with its Born weights,
    |bras|^2 @ |v|^2 on the leg's current diagonal v; `born_draw` checks and
    inverts them, and the leg is projected on the drawn bra. `bras` is
    `slot_bras(alice, bob, n)` and `weights` the squared moduli of its rows.
    """
    for slot, leg in slots:
        drawn[slot] = born_draw(weights[slot] @ np.abs(legs[leg]) ** 2, rng)
        _, legs[leg] = protocol._project_leg(legs[leg], bras[slot][drawn[slot]])


# seeds per N for the comparison with the per-draw oracle
ORACLE_SEEDS = {**{n: 10_000 for n in range(2, 17)}, 32: 1_000, 64: 1_000}


class TestBornTables:
    @pytest.mark.parametrize("n", list(ORACLE_SEEDS))
    def test_sampled_runs_and_sessions_equal_per_draw_oracle(self, n):
        # one oracle draw per seed serves run_protocol and a Session; every
        # tenth session is aborted after the senders' step
        rng = np.random.default_rng(1100 + n)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        bras = slot_bras(alice, bob, n)
        weights = {slot: np.abs(rows) ** 2 for slot, rows in bras.items()}
        for seed in range(ORACLE_SEEDS[n]):
            oracle_rng = np.random.default_rng(seed)
            legs, drawn = channel_legs(n), {}
            per_draw_sample(bras, weights, legs, drawn, PROTOCOL_ORDER[:2], oracle_rng)
            if seed % 10 == 9:
                ses = new_session(alice, bob, n, charlie_consents=False, seed=seed)
                ses.run_to_completion()
                assert ses.outcomes == drawn, seed
                assert ses._rng.bit_generator.state == oracle_rng.bit_generator.state
                for view, leg in zip(ses.legs, legs):
                    assert view.amplitudes.tobytes() == leg_state(leg, 2).amplitudes.tobytes()
                continue
            per_draw_sample(bras, weights, legs, drawn, PROTOCOL_ORDER[2:], oracle_rng)
            expected = corrected_result(alice, bob, OutcomeTuple(**drawn), legs, 1.0 / n**4)
            run_rng = np.random.default_rng(seed)
            assert_same_result(run_protocol(alice, bob, n, rng=run_rng), expected)
            assert run_rng.bit_generator.state == oracle_rng.bit_generator.state, seed
            ses = new_session(alice, bob, n, seed=seed)
            ses.run_to_completion()
            assert_same_result(ses.result(), expected)
            assert ses._rng.bit_generator.state == oracle_rng.bit_generator.state, seed

    @pytest.mark.parametrize("n", [*range(2, 17), 31, 32, 64])
    def test_tables_hold_the_per_draw_cdfs(self, n):
        # every row, so every seed: the CDF floats born_draw would invert
        # and the sender-projected diagonal a per-draw run would carry
        rng = np.random.default_rng(1300 + n)
        four = np.abs(fourier_basis(n).matrix()) ** 2
        ghz = channel_legs(n)[0]
        for _ in range(6):
            target = random_phase_vector(n, rng)
            sender_cdf, controller_cdf = protocol._TARGETS[target].born
            bras = sender_basis(target).matrix().conj()
            probs = np.abs(bras) ** 2 @ np.abs(ghz) ** 2
            assert sender_cdf.tobytes() == born_cdf(probs).tobytes()
            for s, bra in enumerate(bras):
                _, after = protocol._project_leg(ghz, bra)
                assert protocol._TARGETS[target].leg[1][s].tobytes() == after.tobytes()
                cdf = born_cdf(four @ np.abs(after) ** 2)
                assert controller_cdf[s].tobytes() == cdf.tobytes(), s

    def test_cache_is_keyed_by_target_only(self):
        n = 4
        rng = np.random.default_rng(47)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        protocol._TARGETS.clear()
        run_protocol(alice, bob, n, rng=0)
        borns = {target: protocol._TARGETS[target].born for target in (alice, bob)}
        for seed in range(50):
            run_protocol(alice, bob, n, rng=seed)
            new_session(PhaseVector(n, alice.phases), bob, n, seed=seed).run_to_completion()
            run_protocol(bob, alice, n, rng=seed)
        assert set(protocol._TARGETS) == {alice, bob}
        for target in (alice, bob):
            assert protocol._TARGETS[target].born is borns[target]
            for arr in borns[target]:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr.reshape(-1)[0] = 0

    def test_forced_runs_build_no_born_table(self):
        # counted for every kind of call: the parts each builds on a cleared
        # cache, and that repeating it builds nothing more
        rng = np.random.default_rng(53)
        alice, bob = random_phase_vector(3, rng), random_phase_vector(3, rng)
        zero = PhaseVector.zero(3)

        def built():
            return {t: set(vars(r)) - {"target", "outcomes"} for t, r in protocol._TARGETS.items()}

        def entries():
            return {t: dict(r.outcomes) for t, r in protocol._TARGETS.items()}

        # every run reads entry (n, m) of Bob's record and (l, k) of Alice's,
        # here (1, 2) and (0, 0); the zero target serves both legs
        calls = [
            ("forced", lambda oc: run_protocol(alice, bob, 3, outcome=oc),
             {alice: {"state", "bras", "leg"}, bob: {"state", "bras", "leg"}},
             {alice: {(0, 0)}, bob: {(1, 2)}}),
            # the zero target's state is built for its entries' recovery check
            ("probability", lambda oc: outcome_probability(3, oc),
             {zero: {"state", "bras", "leg"}}, {zero: {(0, 0), (1, 2)}}),
            ("sampled", lambda oc: run_protocol(alice, bob, 3, rng=sum(oc.as_tuple())),
             {alice: {"state", "bras", "leg", "born"}, bob: {"state", "bras", "leg", "born"}},
             None),
            ("noisy", lambda oc: noise.noisy_protocol_run(alice, bob, 3, NoiseKind.DEPHASING, 0.2),
             {alice: {"state", "pieces"}, bob: {"state", "pieces"}},
             {alice: set(), bob: set()}),
        ]
        for name, call, parts, keys in calls:
            protocol._TARGETS.clear()
            res = call(OutcomeTuple(0, 1, 2, 0))
            if keys is None:  # a sampled run reads the entries of the tuple it drew
                oc = res.outcome
                keys = {alice: {(oc.l, oc.k)}, bob: {(oc.n, oc.m)}}
            assert built() == parts, name
            assert {t: set(e) for t, e in entries().items()} == keys, name
            records = dict(protocol._TARGETS)
            for oc in all_outcomes(3):
                call(oc)
            held = entries()
            for oc in all_outcomes(3):
                call(oc)
            # a repeat call builds nothing, not even an outcome entry
            assert built() == parts and dict(protocol._TARGETS) == records, name
            assert entries() == held, name

    @pytest.mark.parametrize("n", [2, 4, 16])
    @pytest.mark.parametrize("consents", [True, False])
    def test_results_and_views_do_not_share_memory_with_the_caches(self, n, consents):
        # a sampled session carries cached leg rows between its steps; what
        # it hands out must not pin them after the caches drop them
        rng = np.random.default_rng(59 + n)
        alice, bob = random_phase_vector(n, rng), random_phase_vector(n, rng)
        tables = [
            arr
            for target in (alice, bob)
            for table in (protocol._TARGETS[target].born, protocol._TARGETS[target].leg)
            for arr in table
        ]
        fields = ("a1_before", "b2_before", "alice_final", "bob_final")
        views, results = [], []
        for seed in range(10):
            ses = new_session(alice, bob, n, charlie_consents=consents, seed=seed)
            views += ses.legs
            while ses.advance() is SessionStatus.RUNNING:
                views += ses.legs
            views += ses.legs
            if consents:
                results += [getattr(ses.result(), f) for f in fields]
                sampled = run_protocol(alice, bob, n, rng=seed)
                results += [getattr(sampled, f) for f in fields]
        # a result's views are its outcome entries' own N-vectors; a leg view
        # is a copy, and neither shares a byte with a table
        entries = [
            arr
            for target in (alice, bob)
            for entry in protocol._TARGETS[target].outcomes.values()
            for arr in entry[1:3]
        ]
        for view in views:
            for arr in tables + entries:
                assert not np.shares_memory(view.amplitudes, arr)
        for view in results:
            assert sum(view.amplitudes is arr for arr in entries) == 1
            for arr in tables:
                assert not np.shares_memory(view.amplitudes, arr)


PARTS = ("state", "bras", "leg", "born", "pieces")


def part_bytes(record, part: str) -> list[bytes]:
    """The bytes of every array of one part of a target record."""
    value = getattr(record, part)
    arrays = [value.amplitudes] if part == "state" else value if part in ("leg", "born") else [value]
    return [arr.tobytes() for arr in arrays]


class TestTargetCache:
    @pytest.mark.parametrize("n", [2, 64])
    def test_cache_holds_at_most_its_budget(self, n, monkeypatch):
        # fresh targets with every part built, counted by the charge and by
        # what tracemalloc sees allocated; the oldest records make room
        budget = 3 * 2**20
        monkeypatch.setattr(protocol, "TARGET_CACHE_BYTES", budget)
        rng = np.random.default_rng(67 + n)
        first = random_phase_vector(n, rng)
        protocol._TARGETS.clear()
        # the first fill also builds the per-N tables, which are not the record's
        expected = {part: part_bytes(protocol._TARGETS[first], part) for part in PARTS}
        protocol._TARGETS.clear()
        count = 2 * budget // protocol._record_charge(n) + 2
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for i in range(count):
                target = first if i == 0 else random_phase_vector(n, rng)
                record = protocol._TARGETS[target]
                for part in PARTS:
                    getattr(record, part)
                assert protocol._TARGETS.held <= budget
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        del record
        assert grown <= budget
        charges = sum(protocol._record_charge(t.dim) for t in protocol._TARGETS)
        assert protocol._TARGETS.held == charges
        assert budget - protocol._record_charge(n) < charges
        # the newest record survives, the first was evicted
        assert next(reversed(protocol._TARGETS)) == target
        assert first not in protocol._TARGETS
        rebuilt = protocol._TARGETS[first]
        for part in PARTS:
            assert part_bytes(rebuilt, part) == expected[part], part

    def test_newest_record_is_kept_above_the_budget(self, monkeypatch):
        monkeypatch.setattr(protocol, "TARGET_CACHE_BYTES", 0)
        protocol._TARGETS.clear()
        alice, bob = PhaseVector(3, (0.5, 1.5)), PhaseVector(3, (2.5, 0.25))
        assert all(run_protocol(alice, bob, 3, rng=3).recovered)
        # the run's last read is of Alice's record, for its B2 entry
        assert list(protocol._TARGETS) == [alice]
        assert protocol._TARGETS.held == protocol._record_charge(3)

    @pytest.mark.parametrize("n", [2, 64])
    def test_outcome_entries_stay_within_the_budget(self, n, monkeypatch):
        # sampled runs on fresh target pairs: the charge of every record and
        # entry held is `held`, at most the budget, and at least what
        # tracemalloc sees the cache grow by
        budget = 40 * protocol._record_charge(n) // 3
        monkeypatch.setattr(protocol, "TARGET_CACHE_BYTES", budget)
        rng = np.random.default_rng(4520 + n)

        def sampled(pairs):
            for alice, bob in pairs:
                for seed in range(60):
                    run_protocol(alice, bob, n, rng=seed)
                    charges = sum(
                        protocol._record_charge(n) + len(r.outcomes) * protocol._entry_charge(n)
                        for r in protocol._TARGETS.values()
                    )
                    assert protocol._TARGETS.held == charges <= budget

        def fresh_pairs():
            return [(random_phase_vector(n, rng), random_phase_vector(n, rng)) for _ in range(10)]

        # the same loop on other targets first: the per-N tables and what numpy
        # and the interpreter keep per process are not the cache's
        protocol._TARGETS.clear()
        sampled(fresh_pairs())
        pairs = fresh_pairs()
        protocol._TARGETS.clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sampled(pairs)
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown <= protocol._TARGETS.held
        # entries were kept and evicted with their records, oldest first
        assert sum(len(r.outcomes) for r in protocol._TARGETS.values()) > 0
        assert pairs[0][0] not in protocol._TARGETS
        assert set(pairs[-1]) <= set(protocol._TARGETS)

    @pytest.mark.parametrize("spare", [None, 0, 3])
    def test_lone_record_drops_its_entries(self, spare, monkeypatch):
        # one target on both legs, so the newest record is the only one: over
        # the budget it drops its entries, never itself; `spare` entries fit
        # beside its own charge, or with None the budget is below that charge
        n = 3
        base, entry = protocol._record_charge(n), protocol._entry_charge(n)
        budget = base // 2 if spare is None else base + spare * entry
        monkeypatch.setattr(protocol, "TARGET_CACHE_BYTES", budget)
        rng = np.random.default_rng(4530)

        def forced(target, expected):
            protocol._TARGETS.clear()
            for oc, want in zip(all_outcomes(n), expected):
                assert_same_result(run_protocol(target, target, n, outcome=oc), want)
                (record,) = protocol._TARGETS.values()
                assert len(record.outcomes) <= (spare or 0)
                assert protocol._TARGETS.held == base + len(record.outcomes) * entry
                assert protocol._TARGETS.held <= max(budget, base)

        targets = [random_phase_vector(n, rng) for _ in range(2)]
        expected = [
            [sequential_forced_run(t, t, n, oc) for oc in all_outcomes(n)] for t in targets
        ]
        # the same loop on another target first, as in the test above
        forced(targets[0], expected[0])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            forced(targets[1], expected[1])
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown <= protocol._TARGETS.held

    def test_sender_basis_cache_is_bounded(self):
        # more fresh targets than the cache holds: it stays at its bound
        rng = np.random.default_rng(4404)
        bound = sender_basis.cache_info().maxsize
        for _ in range(bound + 10):
            sender_basis(random_phase_vector(3, rng))
        assert sender_basis.cache_info().currsize == bound

    def test_full_sender_basis_cache_fits_the_budget(self):
        # what one basis holds, seen by tracemalloc at N = 128, is at most
        # 16 N^2 bytes of amplitudes plus 512 N of objects; a full cache of
        # such bases at the CLI's ceiling N = 1024 fits the record budget
        n = 128
        target = random_phase_vector(n, np.random.default_rng(4405))
        protocol._TARGETS[target].bras  # the record's rows are not the basis's
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            basis = sender_basis(target)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(basis.vectors) == n
        assert held <= 16 * n * n + 512 * n
        bound = sender_basis.cache_info().maxsize
        assert bound * (16 * 1024**2 + 512 * 1024) <= protocol.TARGET_CACHE_BYTES

    def test_charge_covers_every_array(self):
        for n in (2, 5, 16):
            protocol._TARGETS.clear()
            record = protocol._TARGETS[PhaseVector.zero(n)]
            arrays = [record.state.amplitudes, record.bras, *record.leg, record.pieces]
            # `born` is two views of one (N + 1, N) block
            arrays.append(record.born[0].base)
            assert record.born[1].base is arrays[-1]
            # the rest of the charge is the key's phases and the Python objects
            held = sum(arr.nbytes for arr in arrays)
            assert held == protocol._record_charge(n) - 32 * n - 2048, n
            # every outcome entry: two N-vectors, and 512 bytes of objects
            for s, t in np.ndindex(n, n):
                record.outcome(s, t, (s + t) % n)
            assert len(record.outcomes) == n * n
            for entry in record.outcomes.values():
                held = sum(arr.nbytes for arr in entry[1:3])
                assert held == protocol._entry_charge(n) - 512, n
            entries = n * n * protocol._entry_charge(n)
            assert record.charge() == protocol._record_charge(n) + entries


@pytest.fixture
def built_states(monkeypatch):
    """Every `StateVector` constructed while the fixture is active, in order."""
    built = []
    validate = StateVector.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(StateVector, "__post_init__", counted)
    return built


VIEWS = ("a1_before", "b2_before", "alice_final", "bob_final")


class TestLazyViews:
    @staticmethod
    def _targets(n: int):
        rng = np.random.default_rng(61 + n)
        return random_phase_vector(n, rng), random_phase_vector(n, rng)

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_runs_and_sessions_build_no_state_until_a_view_is_read(self, n, built_states):
        alice, bob = self._targets(n)
        oc = OutcomeTuple(1, 0, n - 1, 1)

        def results():
            ses = new_session(alice, bob, n, seed=5)
            ses.run_to_completion()
            return [run_protocol(alice, bob, n, outcome=oc), run_protocol(alice, bob, n, rng=5),
                    ses.result()]

        results()  # the first runs fill the per-target caches, which build bases
        del built_states[:]
        for res in results():
            assert built_states == []
            assert all(res.recovered)
            for count, name in enumerate(VIEWS, 1):
                view = getattr(res, name)
                assert len(built_states) == count and built_states[-1] is view
                assert view.dims == (n,)
                assert view.amplitudes.tobytes() == getattr(res, f"{name}_amps").tobytes()
            del built_states[:]

    def test_run_command_builds_no_state_per_trial(self, tmp_path, built_states):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dimension": 5, "alice_phases": [0.1, 0.2, 0.3, 0.4],
                                   "bob_phases": ["pi/3", 0, 1, 2], "trials": 40, "seed": 9}))
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out.json")]
        assert main(argv) == 0
        first = (tmp_path / "out.json").read_bytes()
        del built_states[:]
        assert main(argv) == 0
        assert built_states == []
        assert (tmp_path / "out.json").read_bytes() == first

    def test_unnormalized_raw_array_fails_when_read(self):
        res = run_protocol(*self._targets(3), 3, outcome=OutcomeTuple(0, 1, 2, 0))
        fields = {name: getattr(res, name) for name in ProtocolResult.__dataclass_fields__}
        fields["bob_final_amps"] = 2 * res.bob_final_amps
        bad = ProtocolResult(**fields)
        assert bad.alice_final is not None
        with pytest.raises(ValueError, match="state is not normalized"):
            bad.bob_final
        with pytest.raises(ValueError, match="state is not normalized"):
            bad.bob_final

    def test_views_are_built_once(self):
        res = run_protocol(*self._targets(4), 4, rng=11)
        for name in VIEWS:
            first = getattr(res, name)
            assert getattr(res, name) is first
            assert first.amplitudes is getattr(res, f"{name}_amps")
            with pytest.raises(AttributeError):
                setattr(res, name, first)

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_raw_arrays_are_read_only_and_not_cached_rows(self, n):
        alice, bob = self._targets(n)
        tables = [arr for target in (alice, bob) for arr in protocol._TARGETS[target].leg]
        for res in (run_protocol(alice, bob, n, outcome=OutcomeTuple(0, n - 1, 1, 0)),
                    run_protocol(alice, bob, n, rng=13)):
            for name in VIEWS:
                amps = getattr(res, f"{name}_amps")
                assert amps.shape == (n,) and amps.dtype == complex
                assert not amps.flags.writeable
                with pytest.raises(ValueError):
                    amps[0] = 0
                for arr in tables:
                    assert not np.shares_memory(amps, arr), name
