"""Exception types shared across the package."""

from __future__ import annotations


class QcpartError(Exception):
    """Base class for all qcpart errors."""


class LineError(QcpartError):
    """An error in circuit input text. ``line`` is 1-based when known and
    then prefixes the message."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CircuitSyntaxError(LineError):
    """Malformed circuit text."""


class UnsupportedGateError(LineError):
    """A gate the importer cannot represent without explicit opt-in."""


class InfeasiblePartitionError(QcpartError):
    """Partition parameters that no valid assignment can satisfy."""


class SizeCapError(QcpartError):
    """Problem size above the configured safety cap."""
