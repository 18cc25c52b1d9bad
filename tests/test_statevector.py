"""Statevector engine: gates, measurement, tensoring, fidelity, identities."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellrsp import (
    INPUT_TOL,
    MAX_QUBITS,
    NORM_TOL,
    BadQubitCount,
    DimensionMismatch,
    DuplicateTarget,
    GhzState,
    MeasurementBasis,
    NegativeAlpha,
    NonNormalizedTarget,
    NonUnitary,
    Outcome,
    PAULI_X,
    ROT90,
    SQRT_HALF,
    SameQubit,
    StateVector,
    ZeroProbabilityBranch,
    append_ancillas,
    apply_1q,
    basis_from_target,
    check_decomposition,
    cnot_fanout,
    fidelity_mod_phase,
    make_bell,
    measure_in_basis,
)
from oracles import (
    dense_cnot,
    kron_chain,
    random_pair,
    random_state_vector,
    tensordot_apply_1q,
    tensordot_measurement,
)

ATOL = 1e-12

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT_HALF


def apply_cnot(state, control, target):
    """One CNOT: the single-target case of ``cnot_fanout``."""
    return cnot_fanout(state, control, (target,))


def state_from_json_dict(data):
    """Inverse of ``StateVector.to_json_dict``."""
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    return StateVector(int(data["n_qubits"]), amps)


def random_state(rng, n):
    return StateVector(n, random_state_vector(rng, n))


def random_basis(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return MeasurementBasis(q[:, 0], q[:, 1])


class TestStateVector:
    def test_length_must_match_qubit_count(self):
        with pytest.raises(ValueError, match="expected 8 amplitudes"):
            StateVector(3, np.array([1.0, 0.0]))

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector(1, np.array([np.nan, 0.0]))

    def test_decimal_input_is_rescaled_to_exact_unit_norm(self):
        # nine-decimal truncation of 1/sqrt(2) is off by ~2e-10 but accepted
        state = StateVector(1, np.array([0.707106781, 0.707106781]))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-15

    def test_decimal_input_beyond_tolerance_is_rejected(self):
        # the eight-decimal truncation misses unit norm by ~1.7e-9
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([0.70710678, 0.70710678]))

    def test_amplitudes_are_read_only(self):
        state = make_bell()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_constructor_does_not_alias_caller_array(self):
        amps = np.array([1.0 + 0j, 0.0])
        state = StateVector(1, amps)
        amps[0] = 5.0
        assert state.amplitudes[0] == 1.0

    def test_json_round_trip(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, 3)
        again = state_from_json_dict(state.to_json_dict())
        assert again.n_qubits == 3
        np.testing.assert_allclose(again.amplitudes, state.amplitudes, atol=ATOL)

    @pytest.mark.parametrize("n", [MAX_QUBITS + 1, 70, 10**6])
    def test_rejects_register_above_max_before_sizing_it(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(BadQubitCount, match=f"at most {MAX_QUBITS} qubits, got {n}"):
                StateVector(n, np.array([1.0, 0.0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 7),
        layout=st.sampled_from(("contiguous", "strided", "unit", "basis")),
        off=st.floats(-2 * INPUT_TOL, 2 * INPUT_TOL),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rescaling_is_linalg_norms_bit_for_bit(self, n, layout, off, seed):
        # the rule: v / np.linalg.norm(v), or a copy where that norm is exactly 1
        rng = np.random.default_rng(seed)
        wide = random_state_vector(rng, n + 1)
        pick = slice(None, None, 2) if layout == "strided" else slice(None, 2**n)
        wide /= np.linalg.norm(wide[pick])
        if layout != "unit":
            wide *= 1.0 + off
        v = wide[pick]  # a strided view stays one
        if layout == "basis":
            v = np.zeros(2**n, dtype=complex)
            v[int(rng.integers(0, 2**n))] = (1, -1, 1j, -1j)[int(rng.integers(0, 4))]
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > INPUT_TOL:
            with pytest.raises(ValueError, match="norm"):
                StateVector(n, v)
            return
        expected = v / norm if norm != 1.0 else v.copy()
        assert StateVector(n, v).amplitudes.tobytes() == expected.tobytes()


class TestMeasurementBasis:
    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError, match="unit norm"):
            MeasurementBasis(np.array([1.0, 1.0]), np.array([0.0, 1.0]))

    def test_rejects_non_orthogonal_pair(self):
        with pytest.raises(ValueError, match="orthogonal"):
            MeasurementBasis(np.array([1.0, 0.0]), np.array([SQRT_HALF, SQRT_HALF]))

    def test_vector_lookup(self):
        basis = basis_from_target(1.0, 0.0)
        np.testing.assert_allclose(basis.psi, [1, 0], atol=ATOL)
        np.testing.assert_allclose(basis.psi_perp, [0, -1], atol=ATOL)

    @settings(max_examples=100, deadline=None)
    @given(off=st.floats(-2 * NORM_TOL, 2 * NORM_TOL), seed=st.integers(0, 2**32 - 1))
    def test_unit_norm_check_is_linalg_norms(self, off, seed):
        q = random_basis(np.random.default_rng(seed))
        psi = q.psi * (1.0 + off)
        if abs(np.linalg.norm(psi) - 1.0) > NORM_TOL:
            with pytest.raises(ValueError, match="psi is not unit norm"):
                MeasurementBasis(psi, q.psi_perp)
        else:
            assert MeasurementBasis(psi, q.psi_perp).psi.tobytes() == psi.tobytes()


class TestMakeBell:
    def test_amplitudes(self):
        np.testing.assert_allclose(
            make_bell().amplitudes, [SQRT_HALF, 0.0, 0.0, SQRT_HALF], atol=ATOL
        )

    def test_norm_is_one(self):
        assert abs(np.linalg.norm(make_bell().amplitudes) - 1.0) < ATOL

    def test_uncomputing_the_standard_circuit_gives_00(self):
        # CNOT then Hadamard on the control inverts the usual construction
        state = apply_cnot(make_bell(), control=0, target=1)
        state = apply_1q(state, 0, HADAMARD)
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=ATOL)


class TestBasisFromTarget:
    def test_degenerate_computational_target(self):
        basis = basis_from_target(1.0, 0.0)
        np.testing.assert_allclose(basis.psi, [1, 0], atol=ATOL)
        np.testing.assert_allclose(basis.psi_perp, [0, -1], atol=ATOL)

    def test_equatorial_example_values(self):
        beta = SQRT_HALF * np.exp(1j * np.pi / 3)
        basis = basis_from_target(SQRT_HALF, beta)
        np.testing.assert_allclose(
            basis.psi, [0.70710678, 0.35355339 + 0.61237244j], atol=1e-8
        )
        np.testing.assert_allclose(
            basis.psi_perp, [0.35355339 - 0.61237244j, -0.70710678], atol=1e-8
        )

    def test_complex_beta_is_conjugated_in_psi_perp(self):
        basis = basis_from_target(0.6, 0.8j)
        np.testing.assert_allclose(basis.psi_perp, [-0.8j, -0.6], atol=ATOL)
        assert abs(np.vdot(basis.psi, basis.psi_perp)) < ATOL

    def test_negative_alpha_rejected(self):
        with pytest.raises(NegativeAlpha):
            basis_from_target(-0.6, 0.8)

    def test_non_normalized_rejected(self):
        with pytest.raises(NonNormalizedTarget):
            basis_from_target(0.9, 0.9)

    def test_orthonormal_for_random_pairs(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            alpha, beta = random_pair(rng)
            basis = basis_from_target(alpha, beta)
            assert abs(np.linalg.norm(basis.psi) - 1.0) < ATOL
            assert abs(np.linalg.norm(basis.psi_perp) - 1.0) < ATOL
            assert abs(np.vdot(basis.psi, basis.psi_perp)) < ATOL


    @settings(max_examples=100, deadline=None)
    @given(off=st.floats(-INPUT_TOL, INPUT_TOL), seed=st.integers(0, 2**32 - 1))
    def test_vectors_are_the_pair_over_its_norm_bit_for_bit(self, off, seed):
        alpha, beta = random_pair(np.random.default_rng(seed))
        alpha *= 1.0 + off
        basis = basis_from_target(alpha, beta)
        norm = np.sqrt(alpha * alpha + abs(beta) ** 2)
        psi = np.array([alpha, beta], dtype=complex) / norm
        psi_perp = np.array([beta.conjugate(), -alpha], dtype=complex) / norm
        assert basis.psi.tobytes() == psi.tobytes()
        assert basis.psi_perp.tobytes() == psi_perp.tobytes()


    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        re=st.floats(-1.0, 1.0),
        im=st.floats(-1.0, 1.0),
        off=st.floats(-2 * INPUT_TOL, 2 * INPUT_TOL),
    )
    def test_ordinary_pairs_match_the_unscaled_formula(self, alpha, re, im, off):
        # below 2**500 the scaling is off: the same bases and the same
        # rejections as squaring the coefficients directly
        size = np.sqrt(alpha * alpha + re * re + im * im)
        assume(size > 0.0)
        alpha, beta = alpha / size * (1.0 + off), complex(re, im) / size
        norm = np.sqrt(alpha * alpha + abs(beta) ** 2)
        if abs(norm - 1.0) > INPUT_TOL:
            message = f"alpha**2 + |beta|**2 = {float(norm * norm)!r}, not 1 within {INPUT_TOL}"
            with pytest.raises(NonNormalizedTarget) as excinfo:
                basis_from_target(alpha, beta)
            assert str(excinfo.value) == message
            return
        basis = basis_from_target(alpha, beta)
        psi = np.array([alpha, beta], dtype=complex) / norm
        psi_perp = np.array([beta.conjugate(), -alpha], dtype=complex) / norm
        assert basis.psi.tobytes() == psi.tobytes()
        assert basis.psi_perp.tobytes() == psi_perp.tobytes()

    @pytest.mark.parametrize(
        "alpha, beta, squared_norm",
        [
            (1e200, 0.0, "1e+400"),
            (1e-320, 0.0, "9.99977734489e-641"),
            (0.0, 1e300j, "1e+600"),
            (1.5e300, 1e300, "3.25e+600"),
        ],
    )
    def test_pairs_at_the_float_extremes_get_a_finite_message(self, alpha, beta, squared_norm):
        with pytest.raises(NonNormalizedTarget) as excinfo:
            basis_from_target(alpha, beta)
        assert str(excinfo.value) == (
            f"alpha**2 + |beta|**2 = {squared_norm}, not 1 within {INPUT_TOL}"
        )


class TestMeasureInBasis:
    def test_bell_psi_perp_branch(self):
        alpha, beta = 0.6, 0.8j
        basis = basis_from_target(alpha, beta)
        outcome, prob, collapsed = measure_in_basis(
            make_bell(), 0, basis, Outcome.PSI_PERP
        )
        assert outcome is Outcome.PSI_PERP
        assert abs(prob - 0.5) < ATOL
        assert collapsed.n_qubits == 1
        np.testing.assert_allclose(collapsed.amplitudes, [beta, -alpha], atol=ATOL)

    def test_bell_psi_branch_conjugates_beta(self):
        alpha, beta = 0.6, 0.8j
        basis = basis_from_target(alpha, beta)
        _, prob, collapsed = measure_in_basis(make_bell(), 0, basis, Outcome.PSI)
        assert abs(prob - 0.5) < ATOL
        np.testing.assert_allclose(
            collapsed.amplitudes, [alpha, np.conj(beta)], atol=ATOL
        )

    def test_eigenstate_measurement_is_certain(self):
        zero_zero = StateVector(2, np.array([1.0, 0, 0, 0]))
        basis = basis_from_target(1.0, 0.0)
        outcome, prob, collapsed = measure_in_basis(zero_zero, 0, basis, Outcome.PSI)
        assert outcome is Outcome.PSI
        assert abs(prob - 1.0) < ATOL
        np.testing.assert_allclose(collapsed.amplitudes, [1, 0], atol=ATOL)

    def test_forcing_an_impossible_branch_raises(self):
        zero_zero = StateVector(2, np.array([1.0, 0, 0, 0]))
        basis = basis_from_target(1.0, 0.0)
        with pytest.raises(ZeroProbabilityBranch):
            measure_in_basis(zero_zero, 0, basis, Outcome.PSI_PERP)

    def test_random_selection_is_seed_deterministic(self):
        basis = basis_from_target(0.6, 0.8)
        runs = [
            measure_in_basis(make_bell(), 0, basis, np.random.default_rng(5))[0]
            for _ in range(3)
        ]
        assert runs[0] is runs[1] is runs[2]

    def test_selector_type_is_checked(self):
        basis = basis_from_target(0.6, 0.8)
        with pytest.raises(TypeError):
            measure_in_basis(make_bell(), 0, basis, "psi")

    def test_qubit_index_bounds(self):
        basis = basis_from_target(0.6, 0.8)
        with pytest.raises(IndexError):
            measure_in_basis(make_bell(), 2, basis, Outcome.PSI)

    def test_completeness_for_random_states_and_bases(self):
        rng = np.random.default_rng(303)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            state = random_state(rng, n)
            basis = random_basis(rng)
            qubit = int(rng.integers(0, n))
            probs = []
            for branch in (Outcome.PSI, Outcome.PSI_PERP):
                try:
                    probs.append(measure_in_basis(state, qubit, basis, branch)[1])
                except ZeroProbabilityBranch:
                    probs.append(0.0)
            assert abs(sum(probs) - 1.0) < ATOL

    def test_collapsed_state_is_renormalized(self):
        rng = np.random.default_rng(17)
        state = random_state(rng, 4)
        basis = random_basis(rng)
        _, _, collapsed = measure_in_basis(state, 2, basis, Outcome.PSI)
        assert abs(np.linalg.norm(collapsed.amplitudes) - 1.0) < ATOL
        assert collapsed.n_qubits == 3

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_matches_the_tensordot_contraction_bit_for_bit(self, n, data):
        qubit = data.draw(st.integers(0, n - 1), label="qubit")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        state, basis = random_state(rng, n), random_basis(rng)
        for branch in Outcome:
            prob, collapsed = tensordot_measurement(state, qubit, basis, branch)
            _, got_prob, got = measure_in_basis(state, qubit, basis, branch)
            assert repr(got_prob) == repr(prob)
            assert got.amplitudes.tobytes() == collapsed.amplitudes.tobytes()
        # a sampled measurement draws against the same psi probability
        p_psi, _ = tensordot_measurement(state, qubit, basis, Outcome.PSI)
        expected = Outcome.PSI if np.random.default_rng(seed).random() < p_psi else Outcome.PSI_PERP
        drawn, _, _ = measure_in_basis(state, qubit, basis, np.random.default_rng(seed))
        assert drawn is expected


class TestApply1q:
    def test_rotation_fixes_the_perp_branch(self):
        # the correction that turns (beta, -alpha) into (alpha, beta)
        alpha, beta = 0.6, 0.8j
        state = StateVector(1, np.array([beta, -alpha]))
        out = apply_1q(state, 0, ROT90)
        np.testing.assert_allclose(out.amplitudes, [alpha, beta], atol=ATOL)

    def test_identity_leaves_state_alone(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, 3)
        out = apply_1q(state, 1, np.eye(2))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=ATOL)

    def test_bit_flip_swaps_amplitudes(self):
        state = StateVector(1, np.array([0.6, 0.8]))
        out = apply_1q(state, 0, PAULI_X)
        np.testing.assert_allclose(out.amplitudes, [0.8, 0.6], atol=ATOL)

    @pytest.mark.parametrize("gate", [PAULI_X, ROT90], ids=["PAULI_X", "ROT90"])
    def test_gate_constants_are_read_only(self, gate):
        before = gate.copy()
        with pytest.raises(ValueError):
            gate[:] = [[1, 0], [0, 1]]
        assert gate.tobytes() == before.tobytes()

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitary):
            apply_1q(make_bell(), 0, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            apply_1q(make_bell(), 0, np.eye(4))

    def test_norm_preserved_for_random_unitaries(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            state = random_state(rng, n)
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            out = apply_1q(state, int(rng.integers(0, n)), q)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < ATOL

    def test_matches_dense_kron_oracle(self):
        rng = np.random.default_rng(31)
        state = random_state(rng, 3)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        out = apply_1q(state, 1, q)
        dense = kron_chain(np.eye(2), q, np.eye(2))
        np.testing.assert_allclose(out.amplitudes, dense @ state.amplitudes, atol=ATOL)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 6),
        layout=st.sampled_from(("C", "Fortran", "transposed")),
        data=st.data(),
    )
    def test_matches_the_tensordot_contraction_bit_for_bit(self, n, layout, data):
        qubit = data.draw(st.integers(0, n - 1), label="qubit")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        state = random_state(rng, n)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = {
            "C": np.ascontiguousarray(q),
            "Fortran": np.asfortranarray(q),
            "transposed": np.ascontiguousarray(q).T,
        }[layout]
        expected = tensordot_apply_1q(state, qubit, u)
        assert apply_1q(state, qubit, u).amplitudes.tobytes() == expected.amplitudes.tobytes()


class TestApplyCnot:
    def test_control_clear_is_identity(self):
        state = StateVector(2, np.array([1.0, 0, 0, 0]))
        out = apply_cnot(state, 0, 1)
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=ATOL)

    def test_control_set_flips_target(self):
        state = StateVector(2, np.array([0, 0, 1.0, 0]))  # |10>
        out = apply_cnot(state, 0, 1)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=ATOL)  # |11>

    def test_entangles_superposed_control(self):
        state = append_ancillas(StateVector(1, np.array([0.6, 0.8j])), 1)
        out = apply_cnot(state, 0, 1)
        np.testing.assert_allclose(out.amplitudes, [0.6, 0, 0, 0.8j], atol=ATOL)

    def test_same_qubit_rejected(self):
        with pytest.raises(SameQubit):
            apply_cnot(make_bell(), 1, 1)

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            apply_cnot(make_bell(), 0, 2)

    def test_matches_dense_oracle_any_qubit_pair(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            control, target = rng.choice(n, size=2, replace=False)
            state = random_state(rng, n)
            out = apply_cnot(state, int(control), int(target))
            dense = dense_cnot(n, int(control), int(target))
            np.testing.assert_allclose(
                out.amplitudes, dense @ state.amplitudes, atol=ATOL
            )


class TestAppendAncillas:
    def test_single_ancilla_interleaves_zeros(self):
        state = StateVector(1, np.array([0.6, 0.8]))
        out = append_ancillas(state, 1)
        np.testing.assert_allclose(out.amplitudes, [0.6, 0, 0.8, 0], atol=ATOL)

    def test_zero_count_returns_same_state(self):
        state = make_bell()
        assert append_ancillas(state, 0) is state

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            append_ancillas(make_bell(), -1)

    def test_bell_with_two_ancillas_matches_kron(self):
        out = append_ancillas(make_bell(), 2)
        assert out.n_qubits == 4
        nonzero = np.flatnonzero(np.abs(out.amplitudes) > ATOL)
        assert list(nonzero) == [0, 12]
        explicit = np.kron(make_bell().amplitudes, np.array([1.0, 0, 0, 0]))
        np.testing.assert_allclose(out.amplitudes, explicit, atol=ATOL)

    @pytest.mark.parametrize("k", [70, 10**9])
    def test_rejects_register_above_max_before_allocating(self, k):
        state = StateVector(1, np.array([1.0, 0.0]))
        tracemalloc.start()
        try:
            with pytest.raises(BadQubitCount, match=f"at most {MAX_QUBITS}"):
                append_ancillas(state, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCnotFanout:
    def test_three_qubit_chain(self):
        state = append_ancillas(StateVector(1, np.array([0.6, 0.8j])), 2)
        out = cnot_fanout(state, control=0, targets=[1, 2])
        expected = np.zeros(8, dtype=complex)
        expected[0], expected[7] = 0.6, 0.8j
        np.testing.assert_allclose(out.amplitudes, expected, atol=ATOL)

    def test_empty_target_list_is_identity(self):
        state = make_bell()
        out = cnot_fanout(state, control=0, targets=[])
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=ATOL)

    def test_duplicate_targets_rejected(self):
        state = append_ancillas(make_bell(), 1)
        with pytest.raises(DuplicateTarget):
            cnot_fanout(state, control=0, targets=[1, 1])

    def test_matches_dense_matrix_product_at_m5(self):
        rng = np.random.default_rng(41)
        alpha, beta = random_pair(rng)
        n = 5
        state = append_ancillas(StateVector(1, np.array([alpha, beta])), n - 1)
        out = cnot_fanout(state, control=0, targets=range(1, n))
        product = np.eye(2**n, dtype=complex)
        for target in range(1, n):
            product = dense_cnot(n, 0, target) @ product
        np.testing.assert_allclose(
            out.amplitudes, product @ state.amplitudes, atol=ATOL
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_dense_oracle_and_sequential_cnots(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        control = data.draw(st.integers(0, n - 1), label="control")
        others = [q for q in range(n) if q != control]
        order = data.draw(st.permutations(others), label="order")
        targets = order[: data.draw(st.integers(0, len(order)), label="count")]
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        state = random_state(np.random.default_rng(seed), n)
        out = cnot_fanout(state, control, targets)
        product = np.eye(2**n, dtype=complex)
        sequential = state
        for target in targets:
            product = dense_cnot(n, control, target) @ product
            sequential = apply_cnot(sequential, control, target)
        np.testing.assert_allclose(
            out.amplitudes, product @ state.amplitudes, atol=ATOL
        )
        np.testing.assert_allclose(out.amplitudes, sequential.amplitudes, atol=ATOL)

    def test_empty_target_list_returns_the_same_state(self):
        state = make_bell()
        assert cnot_fanout(state, control=1, targets=[]) is state

    def test_control_among_targets_rejected(self):
        state = append_ancillas(make_bell(), 1)
        with pytest.raises(SameQubit):
            cnot_fanout(state, control=1, targets=[2, 1])

    @pytest.mark.parametrize(
        "control, targets", [(3, [1]), (-1, [1]), (0, [1, 3]), (0, [-1])]
    )
    def test_index_bounds(self, control, targets):
        state = append_ancillas(make_bell(), 1)
        with pytest.raises(IndexError):
            cnot_fanout(state, control, targets)

    def test_one_validated_state_per_fanout(self, monkeypatch):
        state = append_ancillas(StateVector(1, np.array([0.6, 0.8j])), 5)
        validated = []
        original = StateVector.__post_init__

        def counting(self):
            validated.append(self.n_qubits)
            original(self)

        monkeypatch.setattr(StateVector, "__post_init__", counting)
        cnot_fanout(state, control=0, targets=range(1, 6))
        assert validated == [6]


class TestGhzState:
    def test_amplitudes_are_the_dense_fanout_of_the_seed(self):
        seed = StateVector(1, np.array([0.6, -0.8j]))
        for n in range(1, 6):
            dense = cnot_fanout(append_ancillas(seed, n - 1), 0, range(1, n))
            state = GhzState(n, seed)
            assert state.amplitudes.tobytes() == dense.amplitudes.tobytes()
            assert state.to_json_dict() == dense.to_json_dict()

    def test_amplitudes_are_built_once_and_frozen(self):
        state = GhzState(3, StateVector(1, np.array([0.6, 0.8])))
        assert state.amplitudes is state.amplitudes
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=">= 1"):
            GhzState(0, StateVector(1, np.array([1.0, 0.0])))
        with pytest.raises(ValueError, match="1 qubit"):
            GhzState(3, make_bell())

    @pytest.mark.parametrize("n", [70, 10**9])
    def test_densifying_above_max_raises_before_allocating(self, n):
        state = GhzState(n, StateVector(1, np.array([0.6, 0.8])))
        tracemalloc.start()
        try:
            with pytest.raises(BadQubitCount, match=f"at most {MAX_QUBITS}"):
                state.amplitudes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestFidelityModPhase:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(43)
        state = random_state(rng, 3)
        assert abs(fidelity_mod_phase(state, state) - 1.0) < ATOL

    def test_global_phase_is_invisible(self):
        rng = np.random.default_rng(47)
        state = random_state(rng, 2)
        for theta in rng.uniform(-np.pi, np.pi, size=25):
            rotated = StateVector(2, np.exp(-1j * theta) * state.amplitudes)
            assert abs(fidelity_mod_phase(state, rotated) - 1.0) < ATOL

    def test_orthogonal_states_score_zero(self):
        a = StateVector(2, np.array([1.0, 0, 0, 0]))
        b = StateVector(2, np.array([0, 0, 0, 1.0]))
        assert fidelity_mod_phase(a, b) < ATOL

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            fidelity_mod_phase(make_bell(), StateVector(1, np.array([1.0, 0])))

    def test_stays_within_unit_interval(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            a, b = random_state(rng, 3), random_state(rng, 3)
            f = fidelity_mod_phase(a, b)
            assert -ATOL <= f <= 1.0 + ATOL

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_never_leaves_the_unit_interval_even_against_itself(self, n, seed):
        # |<a|a>|**2 of a unit-norm state rounds above 1 for about half of
        # random states; the cap keeps the score a probability
        rng = np.random.default_rng(seed)
        a, b = random_state(rng, n), random_state(rng, n)
        assert 0.0 <= fidelity_mod_phase(a, b) <= 1.0
        assert 0.0 <= fidelity_mod_phase(a, a) <= 1.0


class TestCheckDecomposition:
    def test_real_equatorial_pair(self):
        assert check_decomposition(SQRT_HALF, SQRT_HALF) < ATOL

    def test_degenerate_pair(self):
        assert check_decomposition(1.0, 0.0) < ATOL

    def test_property_sweep(self):
        rng = np.random.default_rng(59)
        worst = max(
            check_decomposition(*random_pair(rng)) for _ in range(1000)
        )
        assert worst < ATOL


class TestBranchSymmetry:
    def test_bell_measurement_is_unbiased_for_any_target(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            basis = basis_from_target(*random_pair(rng))
            for branch in (Outcome.PSI, Outcome.PSI_PERP):
                _, prob, _ = measure_in_basis(make_bell(), 0, basis, branch)
                assert abs(prob - 0.5) < ATOL
