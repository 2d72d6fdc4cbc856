"""Exception hierarchy shared by all qwhile modules."""
from __future__ import annotations


class QwhileError(Exception):
    """Base class for all toolchain errors. An error found in source text
    carries the 1-based line and column it was found at (0 when unknown)
    and prefixes its message with them."""

    def __init__(self, message: str = "", line: int = 0, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}" if line else message)
        self.message = message
        self.line = line
        self.column = column


# --- quantum core ---

class DimMismatch(QwhileError):
    """Operands have incompatible Hilbert-space dimensions."""


class NotUnitary(QwhileError):
    """A matrix expected to be unitary is not (within tolerance)."""


class InvalidState(QwhileError):
    """A channel is not physical: it has no Kraus operator, or its Kraus
    operators break the bound sum_i E_i†E_i <= I."""


class IncompleteMeasurement(QwhileError):
    """Measurement operators do not satisfy the completeness condition."""


class CapacityExceeded(QwhileError):
    """Requested dimension exceeds the dense-simulation cap (12 qubits)."""


# --- language ---

class ParseError(QwhileError):
    """Source text error, with 1-based line/column location."""


class UndeclaredName(ParseError):
    """A name is used before/without being declared."""


class DuplicateName(ParseError):
    """A name is declared twice, or shadows a standard-library gate."""


class DimensionError(ParseError):
    """Operator/register dimensions are inconsistent at an application site."""


# --- simulation engine ---

class MalformedDistribution(QwhileError):
    """A probability vector is negative or does not sum to 1."""


class StepLimitExceeded(QwhileError):
    """Execution exceeded the step limit (possible non-termination)."""


class InvalidSeed(QwhileError):
    """A seed outside [0, 2**64): the sampler's stream is set by 64 bits,
    so a wider seed would silently run another seed's stream."""


class InvalidLimit(QwhileError):
    """A run limit is out of range: a step limit below 1, or a mass
    threshold that is negative or NaN."""


# --- f-QASM ---

class FqasmSyntaxError(ParseError):
    """Malformed f-QASM text, with line number."""


class UnknownRegister(QwhileError):
    """An instruction references an undeclared register."""


class UnknownLabel(QwhileError):
    """A jump targets a label that does not exist."""


class DuplicateLabel(QwhileError):
    """A label is defined more than once."""


class UninitializedRegisterRead(QwhileError):
    """A classical register was read while holding no value."""


# --- synthesis ---

class NetTooCoarse(QwhileError):
    """The base approximation net is too coarse to start the recursion."""


class IndexOutOfRange(QwhileError, IndexError):
    """A gate references a qubit index outside the circuit width."""


# --- experiments ---

class InvalidTarget(QwhileError):
    """A search has fewer than one qubit, or a target set that is empty or
    out of range."""
