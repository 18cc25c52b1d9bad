"""Exception types raised by the library."""


class BellRspError(Exception):
    """Base class for every error this library raises on purpose."""


class NonNormalizedTarget(BellRspError, ValueError):
    """Coefficient pair does not satisfy alpha**2 + |beta|**2 = 1."""


class NegativeAlpha(BellRspError, ValueError):
    """alpha < 0; the pair must be canonicalized before building a basis."""


class BadQubitCount(BellRspError, ValueError):
    """Qubit count below 2 for a target, or above MAX_QUBITS for any register."""


class ZeroProbabilityBranch(BellRspError, ValueError):
    """A branch with (near-)zero Born probability was selected."""


class NonUnitary(BellRspError, ValueError):
    """Matrix fails the U†U = I check."""


class SameQubit(BellRspError, ValueError):
    """Control and target of a CNOT coincide."""


class DuplicateTarget(BellRspError, ValueError):
    """Fan-out target list contains a repeated qubit."""


class DimensionMismatch(BellRspError, ValueError):
    """Two states with different register sizes were combined."""


class MalformedMessage(BellRspError, ValueError):
    """Classical message payload is outside the protocol codec."""


class InvalidFlag(BellRspError, ValueError):
    """Command-line flag or argument value fails validation."""
