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
    _scaled_pair_norm,
    apply_1q,
    fidelity_mod_phase,
)

CASE_TOL = 1e-9     # case classification works on user-entered decimals
SUCCESS_TOL = 1e-9  # success means fidelity >= 1 - SUCCESS_TOL
_BORN = 0.5  # each branch's Born probability: the sender's half of a Bell pair is I/2

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
        _scaled_pair_norm(self.alpha, self.beta, require_unit=True)
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
    a, b, norm = _scaled_pair_norm(a, b, not normalize, "; pass normalize=True to rescale")
    a, b = a / norm, b / norm
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
    """One full protocol run: the ``branch_table`` record of one branch, and
    only that record is built.

    ``select`` either forces the sender's measurement branch or supplies the
    random draw, which lands in psi when it falls below psi's Born
    probability 1/2, exactly as ``monte_carlo`` counts its draws.
    """
    if isinstance(select, np.random.Generator):
        select = Outcome.PSI if select.random() < _BORN else Outcome.PSI_PERP
    if not isinstance(select, Outcome):
        raise TypeError("select must be an Outcome or a numpy random Generator")
    return _record(target, select, build_target_state(target))


def branch_table(target: TargetSpec) -> tuple[TrialRecord, TrialRecord]:
    """The psi_perp and psi records, in that order: the two ``_record``
    calls that ``run_trial`` picks one of, sharing one goal state."""
    goal = build_target_state(target)
    return _record(target, Outcome.PSI_PERP, goal), _record(target, Outcome.PSI, goal)


def _record(target: TargetSpec, outcome: Outcome, goal: GhzState) -> TrialRecord:
    """One branch in closed form. Alice's half of the Bell pair is I/2, so
    the branch has probability exactly 1/2, and measuring it in {psi,
    psi_perp} leaves the receiver (beta, -alpha) on psi_perp and (alpha,
    conj(beta)) on psi. The table's gate corrects that qubit; the fidelity
    with ``goal`` is computed from the two seeds, so no 2**m array is built.
    An aborted run scores 0."""
    alpha, beta = target.alpha, target.beta
    seed = [beta, -alpha] if outcome is Outcome.PSI_PERP else [alpha, beta.conjugate()]
    message = alice_encode(outcome, target.case_tag)
    bob_state = bob_act(message, StateVector(1, seed), target.m)
    fidelity = 0.0 if bob_state is None else fidelity_mod_phase(bob_state.seed, goal.seed)
    return TrialRecord(
        outcome=outcome, message=message, bob_state=bob_state, fidelity=fidelity,
        success=fidelity >= 1.0 - SUCCESS_TOL, bits_sent=message.bit_count,
        probability=_BORN,
    )
