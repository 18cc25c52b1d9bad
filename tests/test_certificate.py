"""Symbolic certificate of the protocol table, in exact arithmetic (sympy).

For symbolic alpha >= 0 and beta = x + iy on alpha**2 + x**2 + y**2 = 1 this
proves the identities the float engine relies on: the Bell pair's two-branch
rewrite, Born probabilities of exactly 1/2, and each gate of the protocol
table taking its branch's collapsed qubit to the target up to a phase, the
fidelity a pair at a class boundary still reaches, and the fan-out taking the
seed to alpha|0...0> + beta|1...1>. The float engine is then pinned to the
figures the certificate derives.
"""

import numpy as np
import pytest
import sympy as sp

from bellrsp import (
    CASE_TOL,
    PAULI_X,
    ROT90,
    SUCCESS_TOL,
    Outcome,
    StateVector,
    TargetCase,
    append_ancillas,
    cnot_fanout,
    exact_analyze,
)
from bellrsp.protocol import _PROTOCOL
from oracles import random_target

ALPHA = sp.Symbol("alpha", nonnegative=True)
X, Y, THETA = sp.symbols("x y theta", real=True)
BETA = X + sp.I * Y
SPHERE = ALPHA**2 + X**2 + Y**2 - 1
BELL = sp.Matrix([1, 0, 0, 1]) / sp.sqrt(2)
HALF = sp.Rational(1, 2)

# each case's target pair (alpha, beta) in its own symbols, and the norm
# constraint those symbols obey (the equatorial pair is unit norm as written)
CASES = {
    TargetCase.GENERAL: ((ALPHA, BETA), SPHERE),
    TargetCase.REAL: ((ALPHA, X), SPHERE.subs(Y, 0)),
    TargetCase.EQUATORIAL: ((1 / sp.sqrt(2), sp.exp(sp.I * THETA) / sp.sqrt(2)), SPHERE),
}


def vanishes(expr, constraint=SPHERE) -> bool:
    """expr is 0 for every target: its remainder modulo the norm constraint
    is 0, and ``simplify`` settles the equatorial targets' exponentials."""
    remainder = sp.reduced(sp.expand(expr), [constraint], ALPHA, X, Y)[1]
    return sp.simplify(remainder) == 0


def exact(gate: np.ndarray) -> sp.Matrix:
    """A library gate as an exact matrix; its entries must be Gaussian integers."""
    matrix = sp.Matrix(2, 2, [int(z.real) + sp.I * int(z.imag) for z in gate.ravel()])
    assert np.array_equal(np.array(matrix.evalf(), dtype=complex), gate)
    return matrix


def pair(a, b) -> sp.Matrix:
    return sp.Matrix([a, b])


def kron(u: sp.Matrix, v: sp.Matrix) -> sp.Matrix:
    return sp.Matrix([ui * vj for ui in u for vj in v])


def basis(a, b) -> dict:
    """The sender's measurement basis for the target (a, b)."""
    return {Outcome.PSI: pair(a, b), Outcome.PSI_PERP: pair(sp.conjugate(b), -a)}


def branch(vector: sp.Matrix) -> sp.Matrix:
    """The receiver's qubit, unnormalised, after qubit 0 of the Bell pair is
    projected onto ``vector``."""
    return BELL.reshape(2, 2).T * vector.conjugate()


def born(vector: sp.Matrix):
    amplitudes = branch(vector)
    return sp.expand((amplitudes.H * amplitudes)[0])


def collapsed(vector: sp.Matrix) -> sp.Matrix:
    """The normalised branch, given the certified probability of 1/2."""
    return sp.sqrt(2) * branch(vector)


class TestBellRewrite:
    def test_two_branch_rewrite_has_residual_zero(self):
        psi = basis(ALPHA, BETA)
        rewrite = (
            kron(psi[Outcome.PSI_PERP], pair(BETA, -ALPHA))
            + kron(psi[Outcome.PSI], pair(ALPHA, sp.conjugate(BETA)))
        ) / sp.sqrt(2)
        assert all(vanishes(entry) for entry in rewrite - BELL)

    @pytest.mark.parametrize("outcome", list(Outcome), ids=lambda o: o.value)
    def test_born_probability_is_exactly_one_half(self, outcome):
        assert vanishes(born(basis(ALPHA, BETA)[outcome]) - HALF)

    @pytest.mark.parametrize("outcome", list(Outcome), ids=lambda o: o.value)
    def test_collapsed_qubits(self, outcome):
        expected = {
            Outcome.PSI: pair(ALPHA, sp.conjugate(BETA)),
            Outcome.PSI_PERP: pair(BETA, -ALPHA),
        }[outcome]
        assert sp.expand(collapsed(basis(ALPHA, BETA)[outcome]) - expected) == sp.zeros(2, 1)


class TestCorrections:
    def test_rot90_maps_the_perp_branch_to_the_target(self):
        assert sp.expand(exact(ROT90) * pair(BETA, -ALPHA)) == pair(ALPHA, BETA)

    def test_real_psi_branch_is_already_the_target(self):
        (a, b), _ = CASES[TargetCase.REAL]
        assert collapsed(basis(a, b)[Outcome.PSI]) == pair(a, b)

    def test_equatorial_flip_gives_the_target_up_to_its_phase(self):
        (a, b), _ = CASES[TargetCase.EQUATORIAL]
        flipped = exact(PAULI_X) * collapsed(basis(a, b)[Outcome.PSI])
        residual = flipped - sp.exp(-sp.I * THETA) * pair(a, b)
        assert all(sp.simplify(entry) == 0 for entry in residual)

    @pytest.mark.parametrize(
        "key", list(_PROTOCOL), ids=lambda key: f"{key[0].value}-{key[1].value}"
    )
    def test_every_table_entry_prepares_its_target(self, key):
        outcome, case = key
        _, gate = _PROTOCOL[key]
        (a, b), constraint = CASES[case]
        corrected = collapsed(basis(a, b)[outcome])
        if gate is not None:
            corrected = exact(gate) * corrected
        overlap = (pair(a, b).H * corrected)[0]
        assert vanishes(overlap * sp.conjugate(overlap) - 1, constraint)


def table_fidelity(key, a, b):
    """|<target|corrected>|**2 when the table entry ``key`` is applied to
    the sender's measurement for the target (a, b)."""
    outcome, _ = key
    _, gate = _PROTOCOL[key]
    corrected = collapsed(basis(a, b)[outcome])
    if gate is not None:
        corrected = exact(gate) * corrected
    overlap = (pair(a, b).H * corrected)[0]
    return sp.expand(overlap * sp.conjugate(overlap))


class TestClassBoundaries:
    """A pair within CASE_TOL of a special class is given that class's psi
    correction, so it can miss the class by up to CASE_TOL. Its fidelity in
    closed form must still count as a success."""

    U = sp.Symbol("u", real=True)  # equatorial offset: alpha**2 = 1/2 + u

    def test_real_correction_off_the_real_axis(self):
        # beta = x + iy with y = Im beta small: the uncorrected qubit scores 1 - 4 alpha**2 y**2
        fidelity = table_fidelity((Outcome.PSI, TargetCase.REAL), ALPHA, BETA)
        assert vanishes(fidelity - (1 - 4 * ALPHA**2 * Y**2))

    def test_equatorial_correction_off_the_equator(self):
        a, r = sp.symbols("a r", positive=True)  # the moduli of alpha and beta
        fidelity = table_fidelity(
            (Outcome.PSI, TargetCase.EQUATORIAL), a, r * sp.exp(sp.I * THETA)
        )
        moduli = [a**2 - HALF - self.U, r**2 - HALF + self.U]
        remainder = sp.reduced(sp.simplify(fidelity) - (1 - 4 * self.U**2), moduli, a, r, self.U)[1]
        assert remainder == 0

    def test_case_tol_keeps_both_boundaries_inside_success_tol(self):
        tol = sp.Rational(repr(CASE_TOL))
        # |Im beta| <= CASE_TOL with alpha <= 1
        real_deficit = 4 * tol**2
        # |alpha - 1/sqrt(2)| <= CASE_TOL (and |beta| likewise) bounds |u|
        offset = sp.sqrt(2) * tol + tol**2
        equatorial_deficit = 4 * offset**2
        assert real_deficit <= sp.Rational(repr(SUCCESS_TOL))
        assert equatorial_deficit <= sp.Rational(repr(SUCCESS_TOL))


def exact_columns(states) -> sp.Matrix:
    """Library states as the columns of an exact matrix; every amplitude must be 0 or 1."""
    columns = np.column_stack([state.amplitudes for state in states])
    assert np.isin(columns, (0, 1)).all()
    return sp.Matrix(columns.real.astype(int))


class TestFanout:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_symbolic_seed_fans_out_to_the_goal_pair(self, m):
        # the library's two steps read as exact matrices, column by column
        seeds = [StateVector(1, column) for column in np.eye(2)]
        ancillas = exact_columns(append_ancillas(seed, m - 1) for seed in seeds)
        inputs = [StateVector(m, column) for column in np.eye(2**m)]
        fanout = exact_columns(cnot_fanout(state, 0, range(1, m)) for state in inputs)
        goal = sp.zeros(2**m, 1)
        goal[0], goal[-1] = ALPHA, BETA
        assert fanout * ancillas * pair(ALPHA, BETA) == goal


def certified_figures(case: TargetCase) -> tuple[sp.Rational, sp.Rational]:
    """(p_success, expected bits): each branch the table corrects has Born
    probability 1/2 and costs its payload's length."""
    entries = [_PROTOCOL[(o, case)] for o in Outcome if (o, case) in _PROTOCOL]
    return HALF * len(entries), sum((HALF * len(payload) for payload, _ in entries), sp.S.Zero)


class TestFigures:
    def test_the_table_gives_the_papers_rationals(self):
        assert certified_figures(TargetCase.GENERAL) == (HALF, HALF)
        assert certified_figures(TargetCase.REAL) == (1, sp.Rational(3, 2))
        assert certified_figures(TargetCase.EQUATORIAL) == (1, sp.Rational(3, 2))

    @pytest.mark.parametrize("case", list(TargetCase), ids=lambda c: c.value)
    def test_float_engine_is_within_1e_15_of_the_certificate(self, case):
        # within 1e-15, not bit-exact: Born probabilities can read
        # 0.5000000000000001, and expected bits 1.5000000000000004
        p_success, expected_bits = (float(v) for v in certified_figures(case))
        rng = np.random.default_rng(611)
        for _ in range(300):
            analysis = exact_analyze(random_target(rng, case.value, m=2))
            assert abs(analysis.p_success - p_success) <= 1e-15
            assert abs(analysis.expected_bits - expected_bits) <= 1e-15
