"""Exception types shared across the package.

Each maps to a CLI exit code: usage errors exit 2, data errors 3,
numerical failures 4.
"""


class CvgfaError(Exception):
    """Base class for package errors."""

    exit_code = 1


class UsageError(CvgfaError):
    """Invalid arguments or option combinations."""

    exit_code = 2


class DataError(CvgfaError):
    """Malformed or inconsistent input data."""

    exit_code = 3


class NumericalError(CvgfaError):
    """Non-finite values or invalid parameters during inference."""

    exit_code = 4

    def __init__(self, message, context=None):
        super().__init__(message)
        # context identifies where the failure happened, e.g.
        # {"phase": "main", "sweep": 3, "group": 1, "factor": 0, "column": 2};
        # sweeps are counted from 1 within their phase ("warmup" or "main"),
        # as trace.csv counts the main ones
        self.context = dict(context) if context else {}
