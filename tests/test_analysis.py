"""Analysis harness: exact oracle, Monte Carlo estimator, comparison table."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellrsp import (
    GhzState,
    LITERATURE_ROWS,
    Outcome,
    RowSource,
    SQRT_HALF,
    TargetCase,
    basis_from_target,
    canonicalize_target,
    emit_comparison_table,
    exact_analyze,
    make_bell,
    measure_in_basis,
    monte_carlo,
    run_trial,
    trial_rng,
)
from bellrsp import CASE_TOL, NORM_TOL, InvalidFlag, analysis, protocol, statevector
from bellrsp.cli import main
from oracles import random_target


def general_target(m=2):
    return canonicalize_target(0.6, 0.8j, m)


def real_target(m=3):
    return canonicalize_target(0.6, 0.8, m)


def equatorial_target(m=5):
    return canonicalize_target(SQRT_HALF, SQRT_HALF * np.exp(1.0j), m)


def brute_force(target, seed, trials):
    """(successes, total bits) from one ``run_trial`` per trial, the definition
    that ``monte_carlo``'s branch-table count must reproduce."""
    records = [run_trial(target, trial_rng(seed, i)) for i in range(trials)]
    return sum(r.success for r in records), sum(r.bits_sent for r in records)


def brute_force_cases():
    rng = np.random.default_rng(103)
    for kind in ("general", "real", "equatorial"):
        target = random_target(rng, kind, m=2)
        seed = int(rng.integers(1, 10_000))
        yield target, seed, brute_force(target, seed, 400)


class TestExactAnalyze:
    def test_general_figures(self):
        analysis = exact_analyze(general_target())
        assert (analysis.p_success, analysis.expected_bits) == (0.5, 0.5)

    def test_real_figures(self):
        analysis = exact_analyze(real_target())
        assert (analysis.p_success, analysis.expected_bits) == (1.0, 1.5)

    def test_equatorial_figures(self):
        analysis = exact_analyze(equatorial_target())
        assert (analysis.p_success, analysis.expected_bits) == (1.0, 1.5)

    def test_branch_probabilities_are_half_each(self):
        rng = np.random.default_rng(97)
        for kind in ("general", "real", "equatorial"):
            analysis = exact_analyze(random_target(rng, kind))
            assert len(analysis.per_branch) == 2
            for branch in analysis.per_branch:
                assert branch.probability == 0.5
            assert sum(b.probability for b in analysis.per_branch) == 1.0

    def test_aggregates_recompute_from_branches(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            kind = ["general", "real", "equatorial"][int(rng.integers(3))]
            analysis = exact_analyze(random_target(rng, kind, m=3))
            p = sum(
                b.probability for b in analysis.per_branch if b.fidelity >= 1 - 1e-9
            )
            bits = sum(b.probability * b.bits_sent for b in analysis.per_branch)
            assert (analysis.p_success, analysis.expected_bits) == (p, bits)

    def test_figures_are_m_independent(self):
        for m in range(2, 11):
            assert exact_analyze(general_target(m)).p_success == 0.5
            assert exact_analyze(real_target(m)).expected_bits == 1.5

    def test_json_field_names(self):
        payload = exact_analyze(general_target()).to_json_dict()
        assert set(payload) == {"p_success", "expected_bits", "per_branch"}
        assert set(payload["per_branch"][0]) == {
            "outcome",
            "probability",
            "bits",
            "fidelity",
        }

    def test_branch_probabilities_are_the_records_probabilities(self):
        # the closed form's 1/2, against the dense engine's projection
        for target in (general_target(), real_target(), equatorial_target()):
            basis = basis_from_target(target.alpha, target.beta)
            for branch in exact_analyze(target).per_branch:
                record = run_trial(target, branch.outcome)
                _, measured, _ = measure_in_basis(make_bell(), 0, basis, branch.outcome)
                assert branch.probability == record.probability == 0.5
                assert abs(measured - 0.5) <= NORM_TOL

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(("general", "real", "equatorial")),
        m=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from((0.0, 0.5 * CASE_TOL, CASE_TOL, 1.5 * CASE_TOL)),
        sign=st.sampled_from((1.0, -1.0)),
    )
    def test_figures_are_exact_for_every_target(self, kind, m, seed, offset, sign):
        # the offset moves a real pair off the real axis, and an equatorial
        # pair off the equator, by up to 1.5 CASE_TOL: either side of a class
        target = random_target(np.random.default_rng(seed), kind, m)
        if kind == "real":
            beta = complex(target.beta.real, sign * offset)
            target = canonicalize_target(target.alpha, beta, m, normalize=True)
        elif kind == "equatorial":
            alpha = SQRT_HALF + sign * offset
            beta = np.sqrt(1.0 - alpha**2) * target.beta / abs(target.beta)
            target = canonicalize_target(alpha, beta, m, normalize=True)
        analysis = exact_analyze(target)
        special = target.case_tag is not TargetCase.GENERAL
        assert analysis.p_success == (1.0 if special else 0.5)
        assert analysis.expected_bits == (1.5 if special else 0.5)
        assert analysis.p_success <= 1.0
        assert [r.probability for r in analysis.per_branch] == [0.5, 0.5]


def record_fields(record):
    """Every field of a trial record in a form that compares bit for bit:
    floats by ``repr`` and the receiver's seed by its bytes."""
    fields = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, float):
            value = repr(value)
        elif isinstance(value, GhzState):
            value = (value.n_qubits, value.seed.n_qubits, value.seed.amplitudes.tobytes())
        fields[field.name] = value
    return fields


class TestBranchTable:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(("general", "real", "equatorial")),
        m=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_records_are_the_forced_run_trial_records(self, kind, m, seed):
        target = random_target(np.random.default_rng(seed), kind, m)
        table = exact_analyze(target).per_branch
        forced = [run_trial(target, branch) for branch in (Outcome.PSI_PERP, Outcome.PSI)]
        assert [record_fields(r) for r in table] == [record_fields(r) for r in forced]

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(("general", "real", "equatorial")),
        m=st.integers(2, 24),
        seed=st.integers(0, 2**130),
        index=st.integers(0, 2**64),
    )
    def test_sampled_record_is_the_table_record_its_draw_selects(self, kind, m, seed, index):
        target = random_target(np.random.default_rng(seed), kind, m)
        perp, psi = protocol.branch_table(target)
        expected = psi if trial_rng(seed, index).random() < 0.5 else perp
        sampled = run_trial(target, trial_rng(seed, index))
        assert record_fields(sampled) == record_fields(expected)

    @pytest.mark.parametrize(
        "call, records",
        [
            (lambda target: run_trial(target, Outcome.PSI_PERP), 1),
            (lambda target: run_trial(target, Outcome.PSI), 1),
            (lambda target: run_trial(target, trial_rng(3, 0)), 1),
            (lambda target: protocol.branch_table(target), 2),
            (lambda target: exact_analyze(target), 2),
            (lambda target: monte_carlo(target, 100, seed=3), 2),
        ],
        ids=["run_trial-psi_perp", "run_trial-psi", "run_trial-sampled",
             "branch_table", "exact_analyze", "monte_carlo"],
    )
    def test_records_built_per_call(self, monkeypatch, call, records):
        # a trial builds the one record it returns; the table builds both
        calls = []

        def counting(*args, _original=protocol._record):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(protocol, "_record", counting)
        for make in (general_target, real_target, equatorial_target):
            calls.clear()
            call(make())
            assert len(calls) == records

    @pytest.mark.parametrize(
        "call",
        [
            lambda target: exact_analyze(target),
            lambda target: monte_carlo(target, 100, seed=3),
            lambda target: run_trial(target, Outcome.PSI),
        ],
        ids=["exact_analyze", "monte_carlo", "run_trial"],
    )
    def test_one_measurement_basis_per_call(self, monkeypatch, call):
        # at most one, and since the table is in closed form, none: neither
        # a basis nor a measurement of the Bell pair is made
        calls = []
        for name in ("basis_from_target", "measure_in_basis"):

            def counting(*args, _name=name, _original=getattr(statevector, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(statevector, name, counting)
        for module in (protocol, analysis):
            assert not {"basis_from_target", "measure_in_basis"} & vars(module).keys()
        call(real_target())
        assert calls == []

    @pytest.mark.parametrize(
        "make", [general_target, real_target, equatorial_target],
        ids=["general", "real", "equatorial"],
    )
    def test_no_tensordot_moveaxis_or_linalg_norm_call(self, monkeypatch, make):
        calls = []
        for module, name in ((np, "tensordot"), (np, "moveaxis"), (np.linalg, "norm")):

            def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        target = make()
        exact_analyze(target)
        monte_carlo(target, 100, seed=3)
        for branch in Outcome:
            run_trial(target, branch)
        assert calls == []


class TestMonteCarlo:
    def test_single_trial_equals_trial_record(self):
        target = general_target()
        stats = monte_carlo(target, 1, seed=5)
        record = run_trial(target, trial_rng(5, 0))
        assert stats.trials == 1
        assert stats.successes == int(record.success)
        assert stats.total_bits == record.bits_sent
        assert stats.success_rate == float(record.success)
        assert stats.mean_bits == float(record.bits_sent)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            monte_carlo(general_target(), 0, seed=1)
        with pytest.raises(ValueError):
            monte_carlo(general_target(), 10, seed=1, workers=0)

    @pytest.mark.parametrize(
        "call, argv",
        [
            (lambda t: monte_carlo(t, 0, 0), ["montecarlo", "--trials", "0"]),
            (lambda t: monte_carlo(t, 5, 0, workers=0), ["montecarlo", "--workers", "0"]),
            (lambda t: monte_carlo(t, 5, -1), ["montecarlo", "--seed", "-1"]),
            (lambda t: trial_rng(-1, 0), ["run", "--seed", "-1"]),
        ],
        ids=["trials", "workers", "monte_carlo-seed", "trial_rng-seed"],
    )
    def test_bad_arguments_raise_invalid_flag_with_the_cli_message(
        self, capsys, call, argv
    ):
        with pytest.raises(InvalidFlag) as excinfo:
            call(general_target())
        assert isinstance(excinfo.value, ValueError)
        target_flags = ["--alpha", "0.6", "--beta-re", "0", "--beta-im", "0.8", "--m", "2"]
        assert main([argv[0], *target_flags, *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {excinfo.value}\n"

    def test_same_seed_reproduces_exactly(self):
        target = equatorial_target()
        assert monte_carlo(target, 400, seed=12) == monte_carlo(target, 400, seed=12)

    def test_different_seeds_differ(self):
        target = general_target()
        a = monte_carlo(target, 4000, seed=1)
        b = monte_carlo(target, 4000, seed=2)
        assert a.successes != b.successes

    def test_worker_count_does_not_change_stats(self):
        target = general_target()
        serial = monte_carlo(target, 3001, seed=9, workers=1)
        for workers in (2, 3, 5):
            assert monte_carlo(target, 3001, seed=9, workers=workers) == serial

    def test_chunk_loop_matches_per_trial_run_trial(self):
        # the block loop counts draws against the branch table; this pins it
        # to the brute-force definition, field for field
        for target, seed, expected in brute_force_cases():
            stats = monte_carlo(target, 400, seed)
            assert (stats.successes, stats.total_bits) == expected

    def test_block_size_does_not_change_stats(self, monkeypatch):
        for target, seed, expected in brute_force_cases():
            for block in (1, 3, 7):
                monkeypatch.setattr(analysis, "DRAW_BLOCK", block)
                stats = monte_carlo(target, 400, seed)
                assert (stats.successes, stats.total_bits) == expected

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**130),
        trials=st.integers(1, 200),
        make_target=st.sampled_from((general_target, real_target, equatorial_target)),
    )
    def test_any_seed_matches_per_trial_run_trial(self, seed, trials, make_target):
        target = make_target(m=2)
        stats = monte_carlo(target, trials, seed)
        assert (stats.successes, stats.total_bits) == brute_force(target, seed, trials)

    def test_stats_fields_are_consistent(self):
        stats = monte_carlo(real_target(), 500, seed=3)
        assert stats.success_rate == stats.successes / stats.trials
        assert stats.mean_bits == stats.total_bits / stats.trials
        assert stats.seed == 3

    def test_agrees_with_exact_oracle_across_cases(self):
        # 30 random targets, 20000 trials each, 5 sigma with the conservative
        # binomial bound sigma = 0.5 / sqrt(n)
        rng = np.random.default_rng(107)
        trials = 20_000
        margin = 5 * 0.5 / np.sqrt(trials)
        for i in range(30):
            kind = ("general", "real", "equatorial")[i % 3]
            target = random_target(rng, kind, m=int(rng.integers(2, 7)))
            exact = exact_analyze(target)
            stats = monte_carlo(target, trials, seed=1000 + i)
            assert abs(stats.success_rate - exact.p_success) < margin
            assert abs(stats.mean_bits - exact.expected_bits) < margin

    def test_json_field_names(self):
        payload = monte_carlo(general_target(), 10, seed=4).to_json_dict()
        assert set(payload) == {
            "trials",
            "successes",
            "total_bits",
            "success_rate",
            "mean_bits",
            "seed",
        }


class TestComparisonTable:
    def test_six_rows_with_one_computed(self):
        rows = emit_comparison_table(general_target())
        assert len(rows) == 6
        computed = [row for row in rows if row.source is RowSource.COMPUTED]
        assert len(computed) == 1
        assert computed[0] is rows[-1]

    def test_literature_rows_are_static(self):
        rows = emit_comparison_table(general_target())
        assert tuple(rows[:5]) == LITERATURE_ROWS

    def test_general_target_row(self):
        row = emit_comparison_table(general_target())[-1]
        assert row.channel == "one BS"
        assert row.identification == "1-qubit state"
        assert row.classical_bits == 0.5
        assert "probabilistic" in row.target_family
        assert "m=2" in row.target_family

    def test_special_target_rows_report_deterministic_regime(self):
        for target in (real_target(), equatorial_target()):
            row = emit_comparison_table(target)[-1]
            assert row.classical_bits == 1.5
            assert "deterministic" in row.target_family
            assert target.case_tag.value in row.target_family

    def test_json_field_names(self):
        payload = emit_comparison_table(general_target())[0].to_json_dict()
        assert set(payload) == {
            "protocol_name",
            "target_family",
            "channel",
            "classical_bits",
            "identification",
            "source",
        }
