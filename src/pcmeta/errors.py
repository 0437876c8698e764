"""Exception types, the input-kind rule, and the lazy numpy stand-in."""

import sys
from numbers import Integral, Real

__all__ = [
    "PcmetaError",
    "InputValidationError",
    "NumericDomainError",
    "NonConvergenceError",
    "EnumerationBudgetError",
]


class _LazyNumpy:
    """A module's ``np`` until its first read, which imports numpy and rebinds it."""

    def __init__(self, namespace: dict) -> None:
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy
        self._namespace["np"] = numpy
        return getattr(numpy, name)


class PcmetaError(Exception):
    """Base class for pcmeta errors."""


class InputValidationError(PcmetaError, ValueError):
    """Raised when user-supplied data or parameters violate a contract."""


class NumericDomainError(PcmetaError, ValueError):
    """Raised when a numeric kernel is evaluated outside its domain."""


class NonConvergenceError(PcmetaError, RuntimeError):
    """Raised when an iterative numeric procedure fails to converge."""


class EnumerationBudgetError(PcmetaError, RuntimeError):
    """Raised when a subset enumeration would exceed its size budget."""


_KINDS = {Integral: "an integer", Real: "a number", str: "a string"}


def _check_kind(name: str, value, kind: type, *, listed: bool = False, low=None) -> None:
    """Raise unless ``value`` is a ``kind`` (a bool is not a number), at
    least ``low`` if given, or, when ``listed``, a non-empty list, tuple
    or array of them."""
    # Only a loaded numpy can have made an array.
    arrays = (sys.modules["numpy"].ndarray,) if "numpy" in sys.modules else ()
    if listed and (not isinstance(value, (list, tuple, *arrays)) or len(value) == 0):
        raise InputValidationError(f"{name} must be a non-empty list, got {value!r}")
    for v in value if listed else [value]:
        if isinstance(v, bool) or not isinstance(v, kind):
            raise InputValidationError(f"{name}: {v!r} is not {_KINDS[kind]}")
        if low is not None and v < low:
            raise InputValidationError(f"{name} must be at least {low}, got {v!r}")


def _check_alpha(alpha) -> None:
    """Raise unless ``alpha`` is a number in (0, 1)."""
    _check_kind("alpha", alpha, Real)
    if not 0.0 < alpha < 1.0:
        raise InputValidationError(f"alpha must be in (0, 1), got {alpha!r}")
