"""Minimal dense statevector engine for small qubit registers.

Index convention is big endian: qubit 0 is the most significant bit of the
amplitude index, so reshaping a 2**n vector to [2]*n puts qubit k on axis k.
Measuring a qubit removes it from the register. States are immutable values;
every operation returns a new state. ``GhzState`` holds a fanned-out state
alpha|0...0> + beta|1...1> as its two amplitudes and densifies it on demand.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadQubitCount,
    DimensionMismatch,
    DuplicateTarget,
    NegativeAlpha,
    NonNormalizedTarget,
    NonUnitary,
    SameQubit,
    ZeroProbabilityBranch,
)

NORM_TOL = 1e-12       # internal identities: norms, orthogonality, probabilities
INPUT_TOL = 1e-9       # user-supplied coefficients arrive as lossy decimals
UNITARY_TOL = 1e-10    # max elementwise deviation of U†U from I
MIN_BRANCH_PROB = 1e-14  # forcing a branch below this is physically meaningless
MAX_QUBITS = 24        # one dense 24-qubit state of complex128 is 256 MiB

SQRT_HALF = 1.0 / np.sqrt(2.0)


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# 2x2 gates used by the protocol's corrections.
PAULI_X = _freeze(np.array([[0, 1], [1, 0]], dtype=complex))
ROT90 = _freeze(np.array([[0, -1], [1, 0]], dtype=complex))  # maps (b, -a) to (a, b)
_EYE2 = _freeze(np.eye(2))  # what U†U must equal


class Outcome(enum.Enum):
    """The two results of a projective measurement in a {psi, psi_perp} basis."""

    PSI = "psi"
    PSI_PERP = "psi_perp"


@dataclass(frozen=True, eq=False)
class StateVector:
    """2**n_qubits complex amplitudes over an ordered qubit register.

    Amplitudes must be finite and normalized within ``INPUT_TOL``; they are
    rescaled to exact unit norm on construction so every downstream identity
    holds at ``NORM_TOL`` even when coefficients were entered as decimals.
    A register above ``MAX_QUBITS`` raises ``BadQubitCount`` before its size
    is computed.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 0:
            raise ValueError(f"n_qubits must be >= 0, got {self.n_qubits}")
        _require_dense(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2**self.n_qubits:
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes for {self.n_qubits} "
                f"qubits, got {amps.size}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite (no NaN/Inf)")
        norm = _norm(amps)
        if abs(norm - 1.0) > INPUT_TOL:
            raise ValueError(f"state norm {float(norm)!r} is not 1 within {INPUT_TOL}")
        # divide (or copy) so the frozen buffer is never shared with the caller
        amps = amps / norm if norm != 1.0 else amps.copy()
        object.__setattr__(self, "amplitudes", _freeze(amps))

    def to_json_dict(self) -> dict:
        """JSON form: n_qubits plus amplitudes as [re, im] pairs."""
        return {
            "n_qubits": self.n_qubits,
            "amplitudes": [[z.real, z.imag] for z in self.amplitudes],
        }


@dataclass(frozen=True, eq=False)
class GhzState:
    """seed[0]|0...0> + seed[1]|1...1> on n_qubits qubits, held as its seed.

    This is what a CNOT fan-out of the 1-qubit ``seed`` over n_qubits - 1
    fresh ancillas gives, so two amplitudes describe it at any size. The
    dense ``amplitudes`` are built by that very chain on first use and
    cached; above ``MAX_QUBITS`` they raise ``BadQubitCount`` before
    anything is allocated.
    """

    n_qubits: int
    seed: StateVector

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.seed.n_qubits != 1:
            raise ValueError(f"seed must be 1 qubit, got {self.seed.n_qubits}")

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        extended = append_ancillas(self.seed, self.n_qubits - 1)
        return cnot_fanout(extended, 0, range(1, self.n_qubits)).amplitudes

    to_json_dict = StateVector.to_json_dict  # same JSON form, densified


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Orthonormal single-qubit basis pair {psi, psi_perp}."""

    psi: np.ndarray
    psi_perp: np.ndarray

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi, dtype=complex).reshape(-1)
        perp = np.asarray(self.psi_perp, dtype=complex).reshape(-1)
        if psi.shape != (2,) or perp.shape != (2,):
            raise ValueError("basis vectors must have exactly 2 components")
        for name, vec in (("psi", psi), ("psi_perp", perp)):
            if abs(_norm(vec) - 1.0) > NORM_TOL:
                raise ValueError(f"{name} is not unit norm")
        if abs(np.vdot(psi, perp)) > NORM_TOL:
            raise ValueError("basis vectors are not orthogonal")
        object.__setattr__(self, "psi", _freeze(psi))
        object.__setattr__(self, "psi_perp", _freeze(perp))


def make_bell() -> StateVector:
    """The shared two-qubit channel (|00> + |11>)/sqrt(2)."""
    return _BELL


def basis_from_target(alpha: float, beta: complex) -> MeasurementBasis:
    """Measurement basis {psi = (alpha, beta), psi_perp = (conj(beta), -alpha)}.

    ``alpha`` must be real and nonnegative (canonicalize the target first) and
    the pair normalized within ``INPUT_TOL``; a pair of any other norm, however
    large or small, raises ``NonNormalizedTarget`` with a finite message. Both
    vectors are rescaled to exact unit norm so Born probabilities obey the
    ``NORM_TOL`` identities.
    """
    alpha = float(alpha)
    beta = complex(beta)
    if alpha < 0:
        raise NegativeAlpha(f"alpha must be >= 0, got {alpha}")
    norm = _scaled_pair_norm(alpha, beta, require_unit=True)[2]  # a scaled pair raises
    psi = np.array([alpha, beta], dtype=complex) / norm
    psi_perp = np.array([beta.conjugate(), -alpha], dtype=complex) / norm
    return MeasurementBasis(psi, psi_perp)


def measure_in_basis(
    state: StateVector,
    qubit: int,
    basis: MeasurementBasis,
    select: Outcome | np.random.Generator,
) -> tuple[Outcome, float, StateVector]:
    """Projective measurement of one qubit in an arbitrary orthonormal basis.

    ``select`` is either a forced :class:`Outcome` (exact branch enumeration)
    or a numpy ``Generator`` supplying the Born-rule draw. One projection
    gives both branches; only the selected one loses the measured qubit and
    is renormalized.

    Returns ``(outcome, probability of that outcome, collapsed state)``.
    """
    if not 0 <= qubit < state.n_qubits:
        raise IndexError(f"qubit {qubit} out of range for {state.n_qubits} qubits")
    # each basis vector's conjugate times the qubit's rows, in one np.dot
    rows = _rows(state, qubit)
    perp, psi = (np.dot(v.conj().reshape(1, 2), rows) for v in (basis.psi_perp, basis.psi))
    if isinstance(select, np.random.Generator):
        p_psi = float(np.vdot(psi, psi).real)
        select = Outcome.PSI if select.random() < p_psi else Outcome.PSI_PERP
    if not isinstance(select, Outcome):
        raise TypeError("select must be an Outcome or a numpy random Generator")
    branch = psi if select is Outcome.PSI else perp
    prob = float(np.vdot(branch, branch).real)
    if prob < MIN_BRANCH_PROB:
        raise ZeroProbabilityBranch(f"branch {select.value} has probability {prob!r}")
    return select, prob, StateVector(state.n_qubits - 1, branch / np.sqrt(prob))


def apply_1q(state: StateVector, qubit: int, u: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to one qubit: one ``np.dot`` of ``u`` with the
    amplitudes as rows indexed by that qubit, copied back to qubit order."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    _require_unitary(u)
    if not 0 <= qubit < state.n_qubits:
        raise IndexError(f"qubit {qubit} out of range for {state.n_qubits} qubits")
    out = np.dot(u, _rows(state, qubit)).reshape(2, 2**qubit, -1)
    return StateVector(state.n_qubits, out.swapaxes(0, 1).reshape(-1))


def _rows(state: StateVector, qubit: int) -> np.ndarray:
    """The amplitudes as 2 rows indexed by ``qubit``: the operand that
    ``np.tensordot`` hands its one ``np.dot`` when it contracts that axis, in
    the same layout, so a product with it is bit-identical to tensordot's."""
    return state.amplitudes.reshape(2**qubit, 2, -1).swapaxes(0, 1).reshape(2, -1)


def _norm(x: np.ndarray) -> np.floating:
    """The 2-norm of a 1-D complex vector by the calls ``np.linalg.norm``
    makes for one, without its argument handling, so bit-identical to it."""
    x = x.ravel(order="K")
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _scaled_pair_norm(
    a: complex, b: complex, require_unit: bool, hint=""
) -> tuple[complex, complex, float]:
    """``(a, b)`` and their 2-norm. Beyond 2**+-500, where a square would
    overflow or lose digits, both are first scaled by the exact power of two
    2**-e that puts the largest component in [0.5, 1), and the scaled pair
    is returned, so its quotient by the norm is the unit pair either way. A
    zero pair raises ``NonNormalizedTarget``, and so does, with
    ``require_unit``, a norm off 1 by more than ``INPUT_TOL``; a scaled pair
    always is, and its squared norm, which no float may hold, is printed in
    decimal."""
    e = math.frexp(max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag)))[1]
    if abs(e) > 500:
        a, b = (complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in (a, b))
    else:
        e = 0
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    if norm == 0.0:
        raise NonNormalizedTarget("coefficients are both zero")
    if require_unit and (e != 0 or not abs(norm - 1.0) <= INPUT_TOL):  # NaN fails too
        text = repr(norm * norm)
        if e != 0:
            from decimal import Context, Decimal  # here, not at import: ~1 ms and 0.3 MB

            text = f"{(Decimal(norm * norm) * Decimal(4) ** e).normalize(Context(prec=12)):g}"
        raise NonNormalizedTarget(f"alpha**2 + |beta|**2 = {text}, not 1 within {INPUT_TOL}{hint}")
    return a, b, norm


def append_ancillas(state: StateVector, k: int) -> StateVector:
    """Tensor k fresh |0> qubits onto the low-order end of the register."""
    if k < 0:
        raise ValueError(f"ancilla count must be >= 0, got {k}")
    _require_dense(state.n_qubits + k)
    if k == 0:
        return state
    zeros = np.zeros(2**k, dtype=complex)
    zeros[0] = 1.0
    return StateVector(state.n_qubits + k, np.kron(state.amplitudes, zeros))


def cnot_fanout(state: StateVector, control: int, targets) -> StateVector:
    """CNOTs from one control onto each target qubit.

    The fan-out is one basis permutation: CNOTs sharing a control commute,
    and together they XOR the control bit into every target bit, which flips
    the target axes of the control=1 half. On alpha|0>+beta|1> tensored with
    |0...0> this produces the GHZ-class correlation alpha|00...0> + beta|11...1>.
    """
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise DuplicateTarget(f"fan-out targets contain duplicates: {targets}")
    if control in targets:
        raise SameQubit(f"control and target are both qubit {control}")
    n = state.n_qubits
    for q in (control, *targets):
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range for {n} qubits")
    if not targets:
        return state
    source = state.amplitudes.reshape([2] * n)
    ones = (slice(None),) * control + (1,)
    # axes of the control=1 half: the control axis is gone, so later ones shift
    axes = tuple(t - 1 if t > control else t for t in targets)
    out = source.copy()
    out[ones] = np.flip(source[ones], axis=axes)
    return StateVector(n, out.reshape(-1))


def fidelity_mod_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>|**2, insensitive to any global phase on either state, and
    capped at 1 so rounding never reports more."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatch(
            f"cannot compare {a.n_qubits}-qubit and {b.n_qubits}-qubit states"
        )
    return min(1.0, float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))


def check_decomposition(alpha: float, beta: complex) -> float:
    """Max deviation of the two-branch reconstruction from the Bell channel.

    Rebuilds (psi_perp (x) (beta, -alpha) + psi (x) (alpha, conj(beta))) /
    sqrt(2) and compares it elementwise against ``make_bell()``. The result
    is below ``NORM_TOL`` for every normalized target pair.
    """
    basis = basis_from_target(alpha, beta)
    # reuse the exactly rescaled coefficients stored in the basis
    a = basis.psi[0].real
    b = complex(basis.psi[1])
    branch_perp = np.array([b, -a], dtype=complex)
    branch_psi = np.array([a, b.conjugate()], dtype=complex)
    recon = (
        np.kron(basis.psi_perp, branch_perp) + np.kron(basis.psi, branch_psi)
    ) * SQRT_HALF
    return float(np.max(np.abs(recon - make_bell().amplitudes)))


def _require_dense(n_qubits: int) -> None:
    if n_qubits > MAX_QUBITS:
        raise BadQubitCount(f"register needs at most {MAX_QUBITS} qubits, got {n_qubits}")


def _require_unitary(u: np.ndarray) -> None:
    deviation = np.max(np.abs(u.conj().T @ u - _EYE2))
    if deviation > UNITARY_TOL:
        raise NonUnitary(f"U†U deviates from identity by {deviation!r}")


_BELL = StateVector(2, np.array([SQRT_HALF, 0.0, 0.0, SQRT_HALF], dtype=complex))
