"""Protocol layer: canonicalization, codec, corrections, full trials."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellrsp import (
    BadQubitCount,
    CASE_TOL,
    ClassicalMessage,
    MAX_QUBITS,
    MalformedMessage,
    NegativeAlpha,
    NonNormalizedTarget,
    Outcome,
    SQRT_HALF,
    StateVector,
    SUCCESS_TOL,
    TargetCase,
    TargetSpec,
    alice_encode,
    bob_act,
    build_target_state,
    canonicalize_target,
    classify_case,
    exact_analyze,
    fidelity_mod_phase,
    monte_carlo,
    run_trial,
)
from oracles import (
    dense_receiver_state,
    random_equatorial_pair,
    random_general_pair,
    random_pair,
    random_real_pair,
    random_target,
)

ATOL = 1e-12


class TestClassifyCase:
    def test_real_pair(self):
        assert classify_case(0.6, 0.8) is TargetCase.REAL

    def test_equatorial_pair(self):
        assert classify_case(SQRT_HALF, SQRT_HALF * 1j) is TargetCase.EQUATORIAL

    def test_general_pair(self):
        assert classify_case(0.6, 0.8j) is TargetCase.GENERAL

    def test_real_wins_when_both_special_tests_pass(self):
        assert classify_case(SQRT_HALF, SQRT_HALF) is TargetCase.REAL

    def test_negative_real_beta_is_still_real(self):
        assert classify_case(0.8, -0.6) is TargetCase.REAL


class TestCanonicalizeTarget:
    def test_removes_global_phase(self):
        target = canonicalize_target(1j * SQRT_HALF, 1j * SQRT_HALF, 2)
        assert target.alpha == pytest.approx(SQRT_HALF, abs=ATOL)
        assert target.beta == pytest.approx(SQRT_HALF, abs=ATOL)
        assert target.case_tag is TargetCase.REAL

    def test_real_pair_passes_through(self):
        target = canonicalize_target(0.6, 0.8, 3)
        assert target.alpha == pytest.approx(0.6, abs=ATOL)
        assert target.beta == pytest.approx(0.8, abs=ATOL)
        assert target.case_tag is TargetCase.REAL
        assert target.m == 3

    def test_equatorial_keeps_its_phase(self):
        target = canonicalize_target(SQRT_HALF, SQRT_HALF * np.exp(0.7j), 4)
        assert target.case_tag is TargetCase.EQUATORIAL
        assert target.theta == pytest.approx(0.7, abs=1e-12)

    def test_zero_alpha_makes_beta_real_positive(self):
        target = canonicalize_target(0.0, np.exp(1.3j), 2)
        assert target.alpha == 0.0
        assert target.beta == pytest.approx(1.0, abs=ATOL)
        assert target.case_tag is TargetCase.REAL

    def test_canonical_state_matches_raw_state_mod_phase(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            alpha, beta = random_pair(rng)
            phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
            target = canonicalize_target(phase * alpha, phase * beta, 2)
            raw = np.zeros(4, dtype=complex)
            raw[0], raw[3] = phase * alpha, phase * beta
            raw_state = StateVector(2, raw)
            built = build_target_state(target)
            assert fidelity_mod_phase(built, raw_state) == pytest.approx(1.0, abs=ATOL)

    def test_rejects_bad_norm_without_flag(self):
        with pytest.raises(NonNormalizedTarget):
            canonicalize_target(0.9, 0.9, 2)

    def test_normalize_flag_rescales(self):
        target = canonicalize_target(3.0, 4.0, 2, normalize=True)
        assert target.alpha == pytest.approx(0.6, abs=ATOL)
        assert target.beta == pytest.approx(0.8, abs=ATOL)

    def test_rejects_zero_pair_even_with_flag(self):
        with pytest.raises(NonNormalizedTarget):
            canonicalize_target(0.0, 0.0, 2, normalize=True)

    def test_rejects_non_finite(self):
        with pytest.raises(NonNormalizedTarget):
            canonicalize_target(np.inf, 0.0, 2, normalize=True)

    def test_rejects_small_m(self):
        with pytest.raises(BadQubitCount):
            canonicalize_target(0.6, 0.8, 1)

    def test_accepts_max_m(self):
        # canonicalizing builds nothing of size 2**m
        assert canonicalize_target(0.6, 0.8, MAX_QUBITS).m == MAX_QUBITS

    @pytest.mark.parametrize("m", [MAX_QUBITS + 1, 70, 10**9])
    def test_rejects_large_m_before_allocating(self, m):
        collapsed = StateVector(1, np.array([0.6, 0.8]))
        tracemalloc.start()
        try:
            for build in (
                lambda: canonicalize_target(0.6, 0.8, m),
                lambda: TargetSpec(0.6, 0.8, m, TargetCase.REAL),
                lambda: bob_act(ClassicalMessage((0,)), collapsed, m),
            ):
                with pytest.raises(BadQubitCount, match=f"at most {MAX_QUBITS}"):
                    build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_eight_decimal_equatorial_input_classifies_correctly(self):
        # truncated decimals miss unit norm by ~8e-10 on the norm; after the
        # exact rescale the pair must still land in the equatorial case
        target = canonicalize_target(0.70710678, complex(0.5, 0.5), 4)
        assert target.case_tag is TargetCase.EQUATORIAL


class TestTargetSpecValidation:
    def test_negative_alpha(self):
        with pytest.raises(NegativeAlpha):
            TargetSpec(-0.6, 0.8, 2, TargetCase.REAL)

    def test_non_normalized(self):
        with pytest.raises(NonNormalizedTarget):
            TargetSpec(0.9, 0.9, 2, TargetCase.REAL)

    def test_small_m(self):
        with pytest.raises(BadQubitCount):
            TargetSpec(0.6, 0.8, 1, TargetCase.REAL)

    def test_mismatched_case_tag(self):
        with pytest.raises(ValueError, match="case_tag"):
            TargetSpec(0.6, 0.8, 2, TargetCase.GENERAL)

    def test_json_dict(self):
        target = canonicalize_target(0.6, 0.8j, 2)
        assert target.to_json_dict() == {
            "alpha": target.alpha,
            "beta": [target.beta.real, target.beta.imag],
            "m": 2,
            "case_tag": "general",
        }


class TestClassicalMessage:
    @pytest.mark.parametrize("bits,wire", [((0,), "0"), ((1, 0), "10"), ((1, 1), "11")])
    def test_payload_wire_round_trip(self, bits, wire):
        message = ClassicalMessage(bits)
        assert message.to_wire() == wire
        assert message.bit_count == len(bits)
        assert not message.is_abort
        assert ClassicalMessage.from_wire(wire) == message

    def test_abort_wire_round_trip(self):
        message = ClassicalMessage(None)
        assert message.to_wire() == "ABORT"
        assert message.bit_count == 0
        assert message.is_abort
        assert ClassicalMessage.from_wire("ABORT") == message

    @pytest.mark.parametrize("bits", [(), (1,), (0, 0), (0, 1), (1, 1, 1)])
    def test_payloads_outside_codec_rejected(self, bits):
        with pytest.raises(MalformedMessage):
            ClassicalMessage(bits)

    @pytest.mark.parametrize("text", ["", "2", "abort", "01", "111", "1 0"])
    def test_wire_junk_rejected(self, text):
        with pytest.raises(MalformedMessage):
            ClassicalMessage.from_wire(text)


class TestAliceEncode:
    @pytest.mark.parametrize(
        "outcome,case,wire",
        [
            (Outcome.PSI_PERP, TargetCase.GENERAL, "0"),
            (Outcome.PSI_PERP, TargetCase.REAL, "0"),
            (Outcome.PSI_PERP, TargetCase.EQUATORIAL, "0"),
            (Outcome.PSI, TargetCase.REAL, "10"),
            (Outcome.PSI, TargetCase.EQUATORIAL, "11"),
            (Outcome.PSI, TargetCase.GENERAL, "ABORT"),
        ],
    )
    def test_exhaustive_codec_table(self, outcome, case, wire):
        assert alice_encode(outcome, case).to_wire() == wire

    def test_every_message_is_actionable(self):
        # codec round trip: bob_act never sees a malformed payload
        collapsed = StateVector(1, np.array([0.6, 0.8]))
        for outcome in Outcome:
            for case in TargetCase:
                message = alice_encode(outcome, case)
                result = bob_act(message, collapsed, 2)
                assert (result is None) == message.is_abort


class TestBobAct:
    def test_perp_payload_restores_target(self):
        alpha, beta = 0.6, 0.8j
        collapsed = StateVector(1, np.array([beta, -alpha]))
        out = bob_act(ClassicalMessage((0,)), collapsed, 2)
        expected = np.zeros(4, dtype=complex)
        expected[0], expected[3] = alpha, beta
        np.testing.assert_allclose(out.amplitudes, expected, atol=ATOL)

    def test_real_payload_applies_no_gate(self):
        alpha, beta = 0.6, 0.8
        collapsed = StateVector(1, np.array([alpha, beta]))  # conj(beta) = beta
        out = bob_act(ClassicalMessage((1, 0)), collapsed, 3)
        expected = np.zeros(8, dtype=complex)
        expected[0], expected[7] = alpha, beta
        np.testing.assert_allclose(out.amplitudes, expected, atol=ATOL)

    def test_equatorial_payload_flips_and_leaves_global_phase(self):
        theta = 1.1
        collapsed = StateVector(
            1, SQRT_HALF * np.array([1.0, np.exp(-1j * theta)])
        )
        out = bob_act(ClassicalMessage((1, 1)), collapsed, 2)
        expected = np.zeros(4, dtype=complex)
        expected[0] = np.exp(-1j * theta) * SQRT_HALF
        expected[3] = np.exp(-1j * theta) * SQRT_HALF * np.exp(1j * theta)
        np.testing.assert_allclose(out.amplitudes, expected, atol=ATOL)

    def test_abort_returns_none(self):
        collapsed = StateVector(1, np.array([0.6, 0.8]))
        assert bob_act(ClassicalMessage(None), collapsed, 5) is None

    def test_small_m_rejected(self):
        collapsed = StateVector(1, np.array([0.6, 0.8]))
        with pytest.raises(BadQubitCount):
            bob_act(ClassicalMessage((0,)), collapsed, 1)

    def test_multi_qubit_collapsed_state_rejected(self):
        with pytest.raises(ValueError, match="1-qubit"):
            bob_act(ClassicalMessage((0,)), StateVector(2, [1, 0, 0, 0]), 2)


class TestBuildTargetState:
    def test_two_qubit_real(self):
        target = canonicalize_target(0.6, 0.8, 2)
        np.testing.assert_allclose(
            build_target_state(target).amplitudes, [0.6, 0, 0, 0.8], atol=ATOL
        )

    def test_degenerate_alpha_one(self):
        target = canonicalize_target(1.0, 0.0, 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(
            build_target_state(target).amplitudes, expected, atol=ATOL
        )

    def test_equatorial_m4_support(self):
        target = canonicalize_target(SQRT_HALF, SQRT_HALF * np.exp(1j * np.pi / 4), 4)
        amps = build_target_state(target).amplitudes
        nonzero = np.flatnonzero(np.abs(amps) > ATOL)
        assert list(nonzero) == [0, 15]


class TestRunTrial:
    def test_general_perp_branch_succeeds_with_one_bit(self):
        target = canonicalize_target(0.6, 0.8j, 2)
        record = run_trial(target, Outcome.PSI_PERP)
        assert record.success
        assert record.bits_sent == 1
        assert record.message.to_wire() == "0"
        assert record.fidelity >= 1.0 - 1e-10

    def test_general_psi_branch_aborts(self):
        target = canonicalize_target(0.6, 0.8j, 2)
        record = run_trial(target, Outcome.PSI)
        assert not record.success
        assert record.bits_sent == 0
        assert record.bob_state is None
        assert record.fidelity == 0.0
        assert record.message.to_wire() == "ABORT"

    def test_equatorial_psi_branch_succeeds_with_two_bits(self):
        target = canonicalize_target(SQRT_HALF, SQRT_HALF * np.exp(0.9j), 2)
        record = run_trial(target, Outcome.PSI)
        assert record.success
        assert record.bits_sent == 2
        assert record.message.to_wire() == "11"

    def test_real_psi_branch_succeeds_with_two_bits(self):
        target = canonicalize_target(0.6, -0.8, 4)
        record = run_trial(target, Outcome.PSI)
        assert record.success
        assert record.bits_sent == 2
        assert record.message.to_wire() == "10"

    def test_degenerate_targets_succeed_on_perp_branch(self):
        for alpha, beta in [(1.0, 0.0), (0.0, 1.0)]:
            target = canonicalize_target(alpha, beta, 2)
            record = run_trial(target, Outcome.PSI_PERP)
            assert record.success

    def test_sampled_trials_hit_both_branches(self):
        target = canonicalize_target(0.6, 0.8j, 2)
        rng = np.random.default_rng(73)
        outcomes = {run_trial(target, rng).outcome for _ in range(64)}
        assert outcomes == {Outcome.PSI, Outcome.PSI_PERP}

    def test_record_invariants_over_random_targets(self):
        rng = np.random.default_rng(79)
        for _ in range(150):
            kind = ["general", "real", "equatorial"][int(rng.integers(3))]
            target = random_target(rng, kind, m=int(rng.integers(2, 7)))
            branch = Outcome.PSI if rng.random() < 0.5 else Outcome.PSI_PERP
            record = run_trial(target, branch)
            assert record.bits_sent in (0, 1, 2)
            assert (record.bits_sent == 0) == (not record.success)
            assert record.success == (record.fidelity >= 1.0 - 1e-9)
            assert (record.bob_state is None) == record.message.is_abort
            assert record.bits_sent == record.message.bit_count

    def test_general_psi_failure_is_systematic(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            alpha, beta = random_general_pair(rng)
            target = canonicalize_target(alpha, beta, 2)
            assert not run_trial(target, Outcome.PSI).success

    def test_special_cases_succeed_on_both_branches(self):
        rng = np.random.default_rng(89)
        for draw in (random_real_pair, random_equatorial_pair):
            for _ in range(40):
                alpha, beta = draw(rng)
                target = canonicalize_target(alpha, beta, int(rng.integers(2, 6)))
                for branch in (Outcome.PSI, Outcome.PSI_PERP):
                    assert run_trial(target, branch).fidelity >= 1.0 - 1e-10

    def test_json_dict_shape(self):
        target = canonicalize_target(0.6, 0.8, 2)
        payload = run_trial(target, Outcome.PSI_PERP).to_json_dict()
        assert payload["outcome"] == "psi_perp"
        assert payload["message"] == "0"
        assert payload["success"] is True
        assert payload["bits_sent"] == 1
        assert payload["bob_state"]["n_qubits"] == 2
        assert "probability" not in payload


BOUNDARY_OFFSET = CASE_TOL - 0.5e-9  # 0.5e-9 inside the classification tolerance
qubit_counts = st.integers(2, 8)
angles = st.floats(0.0, 2 * np.pi)
# relative phases that keep an equatorial pair clear of the real axis
equatorial_phases = st.floats(0.01, np.pi - 0.01).flatmap(
    lambda theta: st.sampled_from((theta, -theta))
)


def assert_both_branches_succeed(target):
    for branch in (Outcome.PSI, Outcome.PSI_PERP):
        record = run_trial(target, branch)
        assert record.fidelity >= 1.0 - SUCCESS_TOL
        assert record.success


class TestRunTrialProperties:
    @settings(max_examples=30, deadline=None)
    @given(phi=angles, m=qubit_counts)
    def test_real_targets_succeed_on_both_branches(self, phi, m):
        target = canonicalize_target(np.cos(phi), np.sin(phi), m)
        assert target.case_tag is TargetCase.REAL
        assert_both_branches_succeed(target)

    @settings(max_examples=30, deadline=None)
    @given(theta=equatorial_phases, m=qubit_counts)
    def test_equatorial_targets_succeed_on_both_branches(self, theta, m):
        target = canonicalize_target(SQRT_HALF, SQRT_HALF * np.exp(1j * theta), m)
        assert target.case_tag is TargetCase.EQUATORIAL
        assert_both_branches_succeed(target)

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(0.0, np.pi / 2), theta=angles, m=qubit_counts)
    def test_general_psi_branch_aborts_with_zero_bits(self, t, theta, m):
        target = canonicalize_target(np.cos(t), np.sin(t) * np.exp(1j * theta), m)
        assume(target.case_tag is TargetCase.GENERAL)
        record = run_trial(target, Outcome.PSI)
        assert record.message.is_abort
        assert record.bits_sent == 0
        assert not record.success

    @settings(max_examples=30, deadline=None)
    @given(phi=angles, sign=st.sampled_from((1.0, -1.0)), m=qubit_counts)
    def test_pairs_inside_the_real_tolerance_succeed(self, phi, sign, m):
        beta = complex(np.sin(phi), sign * BOUNDARY_OFFSET)
        target = canonicalize_target(np.cos(phi), beta, m, normalize=True)
        assert target.case_tag is TargetCase.REAL
        assert abs(target.beta.imag) == pytest.approx(BOUNDARY_OFFSET, abs=1e-15)
        assert_both_branches_succeed(target)

    @settings(max_examples=30, deadline=None)
    @given(
        theta=equatorial_phases, sign=st.sampled_from((1.0, -1.0)), m=qubit_counts
    )
    def test_pairs_inside_the_equatorial_tolerance_succeed(self, theta, sign, m):
        alpha = SQRT_HALF + sign * BOUNDARY_OFFSET
        beta = np.sqrt(1.0 - alpha**2) * np.exp(1j * theta)
        target = canonicalize_target(alpha, beta, m, normalize=True)
        assert target.case_tag is TargetCase.EQUATORIAL
        assert abs(target.alpha - SQRT_HALF) == pytest.approx(BOUNDARY_OFFSET, abs=1e-15)
        assert_both_branches_succeed(target)


def target_of_case(case, m, t, theta):
    """A canonical target of the case from two angles; None if they miss it."""
    if case == "real":
        target = canonicalize_target(np.cos(t), np.sin(t), m)
    elif case == "equatorial":
        beta = SQRT_HALF * np.exp(1j * theta)
        target = canonicalize_target(SQRT_HALF, beta, m)
    else:
        beta = np.sin(t) * np.exp(1j * theta)
        target = canonicalize_target(np.cos(t), beta, m)
    return target if target.case_tag.value == case else None


case_targets = st.builds(
    target_of_case,
    st.sampled_from(("general", "real", "equatorial")),
    st.integers(2, 12),
    angles,
    equatorial_phases,
).filter(lambda target: target is not None)
branches = st.sampled_from((Outcome.PSI, Outcome.PSI_PERP))


class TestReceiverStateAgainstDenseOracle:
    @settings(max_examples=60, deadline=None)
    @given(target=case_targets, branch=branches)
    def test_fidelity_stays_within_unit_interval(self, target, branch):
        assert 0.0 <= run_trial(target, branch).fidelity <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(target=case_targets, branch=branches)
    def test_two_amplitude_record_matches_dense_chain(self, target, branch):
        record = run_trial(target, branch)
        dense = dense_receiver_state(target, branch)
        if dense is None:
            assert record.bob_state is None
            return
        # bytes, so signed zeros must match too
        assert record.bob_state.amplitudes.tobytes() == dense.amplitudes.tobytes()
        densified = fidelity_mod_phase(record.bob_state, build_target_state(target))
        assert abs(record.fidelity - densified) <= 1e-12

    def test_json_keeps_signed_zeros_of_the_dense_chain(self):
        target = canonicalize_target(0.6, -0.8, 3)
        payload = run_trial(target, Outcome.PSI_PERP).to_json_dict()["bob_state"]
        dense = dense_receiver_state(target, Outcome.PSI_PERP)
        assert payload == dense.to_json_dict()
        assert any(np.signbit(re) and re == 0.0 for re, _ in payload["amplitudes"])


def peak_traced_bytes(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


LAZY_M = 20  # a dense state here is 16 MiB, so one built would show


class TestNothingDenseAtLargeM:
    @pytest.mark.parametrize("case", ["general", "real", "equatorial"])
    @pytest.mark.parametrize("branch", [Outcome.PSI, Outcome.PSI_PERP])
    def test_run_trial(self, case, branch):
        target = target_of_case(case, LAZY_M, 0.9, 0.7)
        assert peak_traced_bytes(lambda: run_trial(target, branch)) < 2**20

    def test_exact_analyze(self):
        target = target_of_case("real", LAZY_M, 0.9, 0.7)
        assert peak_traced_bytes(lambda: exact_analyze(target)) < 2**20

    def test_monte_carlo(self):
        target = target_of_case("general", LAZY_M, 0.9, 0.7)
        assert peak_traced_bytes(lambda: monte_carlo(target, 1000, 5)) < 2**20


class TestCanonicalizeProperties:
    moduli = st.floats(0.05, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(r_a=moduli, r_b=moduli, phi_a=angles, phi_b=angles, m=st.integers(2, 12))
    def test_idempotent_up_to_rounding(self, r_a, r_b, phi_a, phi_b, m):
        # the norm of a canonical pair can be 1 +- 1 ulp, so a second pass may
        # rescale by that ulp; nothing else moves
        first = canonicalize_target(
            r_a * np.exp(1j * phi_a), r_b * np.exp(1j * phi_b), m, normalize=True
        )
        again = canonicalize_target(first.alpha, first.beta, m)
        assert (again.m, again.case_tag) == (first.m, first.case_tag)
        assert abs(again.alpha - first.alpha) <= 1e-15
        assert abs(again.beta - first.beta) <= 1e-15
        assert canonicalize_target(again.alpha, again.beta, m).case_tag is first.case_tag

    @settings(max_examples=60, deadline=None)
    @given(
        r_a=st.one_of(st.just(0.0), moduli),
        r_b=moduli,
        phi_b=angles,
        gamma=angles,
        m=st.integers(2, 12),
    )
    def test_global_phase_is_removed(self, r_a, r_b, phi_b, gamma, m):
        alpha, beta = r_a, r_b * np.exp(1j * phi_b)
        phase = np.exp(1j * gamma)
        plain = canonicalize_target(alpha, beta, m, normalize=True)
        rotated = canonicalize_target(phase * alpha, phase * beta, m, normalize=True)
        assert rotated.case_tag is plain.case_tag
        assert abs(rotated.alpha - plain.alpha) <= 1e-14
        assert abs(rotated.beta - plain.beta) <= 1e-14
        if r_a == 0.0:
            assert rotated.alpha == 0.0
            assert rotated.beta == pytest.approx(1.0, abs=1e-15)
            assert rotated.case_tag is TargetCase.REAL


CODEC_MESSAGES = [
    ClassicalMessage((0,)),
    ClassicalMessage((1, 0)),
    ClassicalMessage((1, 1)),
    ClassicalMessage(None),
]


class TestWireCodec:
    @pytest.mark.parametrize("message", CODEC_MESSAGES, ids=lambda m: m.to_wire())
    def test_round_trip(self, message):
        assert ClassicalMessage.from_wire(message.to_wire()) == message

    def test_every_other_short_bit_string_is_rejected(self):
        valid = {message.to_wire() for message in CODEC_MESSAGES}
        rejected = 0
        for length in range(5):
            for index in range(2**length):
                text = format(index, f"0{length}b") if length else ""
                if text in valid:
                    continue
                with pytest.raises(MalformedMessage):
                    ClassicalMessage.from_wire(text)
                rejected += 1
        assert rejected == 31 - 3
