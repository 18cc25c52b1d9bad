"""Independent reference constructions used to cross-check the library.

Everything here is built from first principles (explicit dense matrices,
integer bit arithmetic, np.kron) rather than through the library's own fast
paths, so agreement is evidence and not tautology.
"""

from __future__ import annotations

import numpy as np

from bellrsp import (
    MeasurementBasis,
    PAULI_X,
    ROT90,
    SQRT_HALF,
    Outcome,
    StateVector,
    TargetCase,
    TargetSpec,
    append_ancillas,
    basis_from_target,
    canonicalize_target,
    cnot_fanout,
    make_bell,
    measure_in_basis,
)


def dense_cnot(n: int, control: int, target: int) -> np.ndarray:
    """Explicit 2^n x 2^n CNOT permutation matrix, big-endian qubit order."""
    dim = 2**n
    matrix = np.zeros((dim, dim), dtype=complex)
    control_shift = n - 1 - control
    target_shift = n - 1 - target
    for i in range(dim):
        control_bit = (i >> control_shift) & 1
        j = i ^ (control_bit << target_shift)
        matrix[j, i] = 1.0
    return matrix


def kron_chain(*factors: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for factor in factors:
        out = np.kron(out, factor)
    return out


def random_state_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_pair(rng: np.random.Generator) -> tuple[float, complex]:
    """Normalized (alpha >= 0 real, beta complex), away from degenerate zero."""
    while True:
        parts = rng.normal(size=3)
        alpha = abs(parts[0])
        beta = complex(parts[1], parts[2])
        norm = np.sqrt(alpha**2 + abs(beta) ** 2)
        if norm > 1e-6:
            return alpha / norm, beta / norm


def random_real_pair(rng: np.random.Generator) -> tuple[float, complex]:
    while True:
        parts = rng.normal(size=2)
        alpha = abs(parts[0])
        beta = complex(parts[1], 0.0)
        norm = np.sqrt(alpha**2 + abs(beta) ** 2)
        if norm > 1e-6:
            return alpha / norm, beta / norm


def random_equatorial_pair(rng: np.random.Generator) -> tuple[float, complex]:
    # keep theta away from 0 and pi so the pair never classifies as real
    theta = rng.uniform(0.05, np.pi - 0.05) * rng.choice([-1.0, 1.0])
    return SQRT_HALF, SQRT_HALF * np.exp(1j * theta)


def random_general_pair(rng: np.random.Generator) -> tuple[float, complex]:
    """A pair that is clearly neither real nor equatorial."""
    while True:
        alpha, beta = random_pair(rng)
        if abs(beta.imag) > 1e-4 and abs(alpha - SQRT_HALF) > 1e-3:
            return alpha, beta


def random_target(
    rng: np.random.Generator, kind: str, m: int | None = None
) -> TargetSpec:
    draw = {
        "real": random_real_pair,
        "equatorial": random_equatorial_pair,
        "general": random_general_pair,
    }[kind]
    alpha, beta = draw(rng)
    if m is None:
        m = int(rng.integers(2, 11))
    return canonicalize_target(alpha, beta, m)


def dense_receiver_state(target: TargetSpec, branch: Outcome) -> StateVector | None:
    """The receiver's m-qubit state built densely, gate by gate: measure the
    Bell pair, correct the collapsed qubit as the branch and case require,
    then tensor m-1 ancillas and fan out. None where the run aborts."""
    basis = basis_from_target(target.alpha, target.beta)
    _, _, collapsed = measure_in_basis(make_bell(), 0, basis, branch)
    if branch is Outcome.PSI_PERP:
        corrected = tensordot_apply_1q(collapsed, 0, ROT90)
    elif target.case_tag is TargetCase.REAL:
        corrected = collapsed
    elif target.case_tag is TargetCase.EQUATORIAL:
        corrected = tensordot_apply_1q(collapsed, 0, PAULI_X)
    else:
        return None
    extended = append_ancillas(corrected, target.m - 1)
    return cnot_fanout(extended, 0, range(1, target.m))


def tensordot_measurement(
    state: StateVector, qubit: int, basis: MeasurementBasis, branch: Outcome
) -> tuple[float, StateVector]:
    """A forced branch's Born probability and collapsed state, by contracting
    the measured axis, moved to the front, with the basis vector's conjugate
    in ``np.tensordot``. The branch must have nonzero probability."""
    tensor = np.moveaxis(state.amplitudes.reshape([2] * state.n_qubits), qubit, 0)
    vector = basis.psi if branch is Outcome.PSI else basis.psi_perp
    amplitudes = np.tensordot(vector.conj(), tensor, axes=([0], [0]))
    prob = float(np.vdot(amplitudes, amplitudes).real)
    return prob, StateVector(state.n_qubits - 1, amplitudes.reshape(-1) / np.sqrt(prob))


def tensordot_apply_1q(state: StateVector, qubit: int, u: np.ndarray) -> StateVector:
    """A 2x2 gate on one qubit, by contracting the gate's columns with the
    qubit's axis, moved to the front, in ``np.tensordot``, then moving the
    new axis back to the qubit's place."""
    tensor = np.moveaxis(state.amplitudes.reshape([2] * state.n_qubits), qubit, 0)
    out = np.moveaxis(np.tensordot(u, tensor, axes=([1], [0])), 0, qubit)
    return StateVector(state.n_qubits, out.reshape(-1))
