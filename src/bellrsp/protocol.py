"""Remote preparation of alpha|0...0> + beta|1...1> over one Bell pair.

The sender knows the target pair (alpha, beta). She measures her half of the
shared Bell state in a target-dependent basis and reports the outcome over a
classical channel using a tiny codec ("0", "10", "11", or an explicit ABORT).
The receiver applies a corrective unitary selected by the message, then fans
the corrected qubit out over m-1 fresh ancillas with CNOTs.

For a general target only the psi_perp branch is correctable, so the protocol
succeeds with probability 1/2 at an average forward cost of 0.5 bits. When
both coefficients are real, or when the target is equatorial (both moduli
1/sqrt(2)), the psi branch is correctable too: success probability 1 at an
average cost of 1.5 bits.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadQubitCount,
    MalformedMessage,
    NegativeAlpha,
    NonNormalizedTarget,
)
from .statevector import (
    INPUT_TOL,
    MAX_QUBITS,
    PAULI_X,
    ROT90,
    SQRT_HALF,
    GhzState,
    Outcome,
    StateVector,
    apply_1q,
)

CASE_TOL = 1e-9     # case classification works on user-entered decimals
SUCCESS_TOL = 1e-9  # success means fidelity >= 1 - SUCCESS_TOL

ABORT_WIRE = "ABORT"


class TargetCase(enum.Enum):
    """Which correction regime a canonical target pair falls into."""

    GENERAL = "general"
    REAL = "real"              # both coefficients real: psi branch needs no gate
    EQUATORIAL = "equatorial"  # both moduli 1/sqrt(2): psi branch fixed by a flip


# The protocol, once: (branch, case) -> (payload, receiver's gate). psi_perp
# leaves the receiver (beta, -alpha), which ROT90 turns into (alpha, beta) for
# any target. psi leaves (alpha, conj(beta)): that is the target when beta is
# real, and PAULI_X makes it (conj(beta), alpha) = conj(beta)/alpha * (alpha,
# beta), a global phase, when both moduli are 1/sqrt(2). A pair missing from
# the table aborts; the payloads are exactly the messages the codec admits.
_PROTOCOL = {
    (Outcome.PSI_PERP, TargetCase.GENERAL): ((0,), ROT90),
    (Outcome.PSI_PERP, TargetCase.REAL): ((0,), ROT90),
    (Outcome.PSI_PERP, TargetCase.EQUATORIAL): ((0,), ROT90),
    (Outcome.PSI, TargetCase.REAL): ((1, 0), None),
    (Outcome.PSI, TargetCase.EQUATORIAL): ((1, 1), PAULI_X),
}
_GATES = dict(_PROTOCOL.values())  # payload -> gate; None means no gate


@dataclass(frozen=True)
class TargetSpec:
    """Canonical target: alpha real >= 0, unit norm, m >= 2, classified case."""

    alpha: float
    beta: complex
    m: int
    case_tag: TargetCase

    def __post_init__(self) -> None:
        _require_qubit_count(self.m)
        if self.alpha < 0:
            raise NegativeAlpha(f"alpha must be >= 0, got {self.alpha}")
        _unit_pair(self.alpha, self.beta, require_unit=True)
        if self.case_tag is not classify_case(self.alpha, self.beta):
            raise ValueError(
                f"case_tag {self.case_tag.value!r} does not match the "
                f"coefficients (expected {classify_case(self.alpha, self.beta).value!r})"
            )

    @property
    def theta(self) -> float:
        """Relative phase arg(beta); the free parameter of equatorial targets."""
        return float(cmath.phase(self.beta))

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": [self.beta.real, self.beta.imag],
            "m": self.m,
            "case_tag": self.case_tag.value,
        }


def _require_qubit_count(m: int) -> None:
    """Reject m outside [2, MAX_QUBITS] before anything of size 2**m exists."""
    if m < 2:
        raise BadQubitCount(f"target needs at least 2 qubits, got m={m}")
    if m > MAX_QUBITS:
        raise BadQubitCount(f"target needs at most {MAX_QUBITS} qubits, got m={m}")


def _unit_pair(a: complex, b: complex, require_unit: bool, hint="") -> tuple[complex, complex]:
    """``(a, b)`` over their norm. Beyond 2**+-500, where a square would
    overflow or lose digits, both are first scaled by the exact power of two
    2**-e that puts the largest component in [0.5, 1). A zero pair raises
    ``NonNormalizedTarget``, and so does, with ``require_unit``, a norm off 1
    by more than ``INPUT_TOL``; a scaled pair always is, and its squared
    norm, which no float may hold, is printed in decimal."""
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
    return a / norm, b / norm


def classify_case(alpha: float, beta: complex) -> TargetCase:
    """Classify a canonical pair; REAL wins when both special tests pass."""
    if abs(complex(beta).imag) <= CASE_TOL:
        return TargetCase.REAL
    if (
        abs(alpha - SQRT_HALF) <= CASE_TOL
        and abs(abs(beta) - SQRT_HALF) <= CASE_TOL
    ):
        return TargetCase.EQUATORIAL
    return TargetCase.GENERAL


def canonicalize_target(
    alpha_raw: complex,
    beta_raw: complex,
    m: int,
    normalize: bool = False,
) -> TargetSpec:
    """Bring a raw coefficient pair into canonical form and classify it.

    Multiplies both coefficients by a unit-modulus global phase so alpha
    becomes real and nonnegative (the state itself is unchanged), rescales to
    exact unit norm, and tags the case. Pass ``normalize=True`` to accept a
    pair of any nonzero norm; otherwise the norm must already be 1 within
    ``INPUT_TOL``. Any finite pair is handled, subnormal or near the float
    maximum.
    """
    _require_qubit_count(m)
    a = complex(alpha_raw)
    b = complex(beta_raw)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise NonNormalizedTarget("coefficients must be finite")
    a, b = _unit_pair(a, b, not normalize, "; pass normalize=True to rescale")
    # phase away arg(alpha); for alpha = 0 make beta real positive instead
    reference = a if abs(a) > 0 else b
    phase = reference.conjugate() / abs(reference)
    alpha = abs(a)
    beta = b * phase
    return TargetSpec(alpha, beta, m, classify_case(alpha, beta))


@dataclass(frozen=True)
class ClassicalMessage:
    """Payload bits from the sender, or ``bits=None`` for an explicit abort."""

    bits: tuple[int, ...] | None

    def __post_init__(self) -> None:
        if self.bits is None:
            return
        bits = tuple(int(bit) for bit in self.bits)
        if bits not in _GATES:
            raise MalformedMessage(f"payload {bits!r} is outside the codec")
        object.__setattr__(self, "bits", bits)

    @property
    def bit_count(self) -> int:
        return 0 if self.bits is None else len(self.bits)

    def to_wire(self) -> str:
        """Bit-exact wire form: "0", "10", "11", or the literal "ABORT"."""
        if self.bits is None:
            return ABORT_WIRE
        return "".join(str(bit) for bit in self.bits)

    @classmethod
    def from_wire(cls, text: str) -> ClassicalMessage:
        if text == ABORT_WIRE:
            return cls(None)
        if not text or set(text) - {"0", "1"}:
            raise MalformedMessage(f"wire form {text!r} is outside the codec")
        return cls(tuple(int(ch) for ch in text))


def alice_encode(outcome: Outcome, case_tag: TargetCase) -> ClassicalMessage:
    """The protocol table's message for (outcome, case): psi_perp is always
    correctable ("0"); psi only in the special cases ("10" real, "11"
    equatorial). A pair missing from the table, psi for a general target,
    aborts the run."""
    entry = _PROTOCOL.get((outcome, case_tag))
    return ClassicalMessage(None if entry is None else entry[0])


def bob_act(
    message: ClassicalMessage, collapsed: StateVector, m: int
) -> GhzState | None:
    """Receiver's response: the protocol table's gate for the message's
    payload, then CNOT fan-out of the corrected qubit over m-1 fresh ancillas.

    "0" applies ROT90, "10" no gate and "11" PAULI_X; the table's comment
    gives the reasons. Abort returns None. The fanned-out state is returned
    as a ``GhzState`` seeded by the corrected qubit: two amplitudes,
    densified only when read.
    """
    _require_qubit_count(m)
    if message.bits is None:
        return None
    if collapsed.n_qubits != 1:
        raise ValueError(
            f"expected a 1-qubit collapsed state, got {collapsed.n_qubits} qubits"
        )
    gate = _GATES[message.bits]
    corrected = collapsed if gate is None else apply_1q(collapsed, 0, gate)
    return GhzState(m, corrected)


def build_target_state(target: TargetSpec) -> GhzState:
    """The m-qubit goal state alpha|00...0> + beta|11...1>, held as the
    1-qubit seed (alpha, beta)."""
    return GhzState(target.m, StateVector(1, [target.alpha, target.beta]))


@dataclass(frozen=True)
class TrialRecord:
    """Everything observable about one protocol run, plus the Born
    probability of its branch (kept out of the JSON form)."""

    outcome: Outcome
    message: ClassicalMessage
    bob_state: GhzState | None
    fidelity: float
    success: bool
    bits_sent: int
    probability: float

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "message": self.message.to_wire(),
            "bob_state": None if self.bob_state is None else self.bob_state.to_json_dict(),
            "fidelity": self.fidelity,
            "success": self.success,
            "bits_sent": self.bits_sent,
        }


def run_trial(
    target: TargetSpec, select: Outcome | np.random.Generator
) -> TrialRecord:
    """One full protocol run: the ``branch_table`` record of one branch.

    ``select`` either forces the sender's measurement branch or supplies the
    random draw, which lands in psi when it falls below psi's Born
    probability, exactly as ``monte_carlo`` counts its draws.
    """
    perp, psi = branch_table(target)
    if isinstance(select, np.random.Generator):
        select = Outcome.PSI if select.random() < psi.probability else Outcome.PSI_PERP
    if not isinstance(select, Outcome):
        raise TypeError("select must be an Outcome or a numpy random Generator")
    return psi if select is Outcome.PSI else perp


def branch_table(target: TargetSpec) -> tuple[TrialRecord, TrialRecord]:
    """The psi_perp and psi records in closed form. Alice's half of the Bell
    pair is I/2, so each branch has probability exactly 1/2, and measuring it
    in {psi, psi_perp} leaves the receiver (beta, -alpha) on psi_perp and
    (alpha, conj(beta)) on psi. The table's gate corrects that qubit; the
    fidelity, |<bob|goal>|**2 capped at 1, is computed from the two seeds,
    so no 2**m array is built. An aborted run scores 0."""
    alpha, beta, goal = target.alpha, target.beta, build_target_state(target)
    return (
        _record(target, Outcome.PSI_PERP, StateVector(1, [beta, -alpha]), goal),
        _record(target, Outcome.PSI, StateVector(1, [alpha, beta.conjugate()]), goal),
    )


def _record(target, outcome, collapsed, goal) -> TrialRecord:
    """One branch's message, receiver state and score, at probability 1/2."""
    message = alice_encode(outcome, target.case_tag)
    bob_state = bob_act(message, collapsed, target.m)
    fidelity = 0.0  # an aborted run
    if bob_state is not None:
        overlap = np.vdot(bob_state.seed.amplitudes, goal.seed.amplitudes)
        fidelity = min(1.0, float(abs(overlap) ** 2))
    return TrialRecord(
        outcome=outcome, message=message, bob_state=bob_state, fidelity=fidelity,
        success=fidelity >= 1.0 - SUCCESS_TOL, bits_sent=message.bit_count,
        probability=0.5,
    )
