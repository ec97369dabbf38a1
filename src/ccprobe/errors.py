"""Exception types shared across the package.

Each subclass of ``CcprobeError`` is one failure a caller handles
differently: a bad configuration, a bad trace file, or a broken program.
"""


class CcprobeError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(CcprobeError):
    """A config object or scenario violates its invariants."""


class InternalError(CcprobeError):
    """A broken program: a peer outside its contract, a misused timer, a clock run back."""


class TraceParseError(CcprobeError):
    """A trace line does not parse or is out of time order; carries its 1-based number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
