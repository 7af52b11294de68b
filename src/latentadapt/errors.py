"""Shared exception types, and the checks that turn an argument into a
float array, an integer or a seed, or refuse it. CLI exit codes map onto
the exception classes."""

import operator

import numpy as np


class ContractViolation(ValueError):
    """A precondition was violated (dimension mismatch, invalid argument)."""


class DataFormatError(ValueError):
    """A file failed validation (bad magic, truncated payload, non-finite data)."""


class ConvergenceFailure(RuntimeError):
    """An iterative numerical routine failed to converge."""


def real_array(x, name: str, shape: tuple | None = None) -> np.ndarray:
    """``x`` as a float64 array if it is a real numeric array (integers or
    floats) of ``shape``, when given, else :class:`ContractViolation`: a
    bool, complex, string or object array, or a ragged nesting, is refused,
    never cast. A float64 array comes back as ``np.asarray`` returns it."""
    try:
        a = np.asarray(x)
    except ValueError as exc:  # ragged
        raise ContractViolation(f"{name} must be a real numeric array") from exc
    if a.dtype.kind not in "iuf":
        raise ContractViolation(f"{name} must be a real numeric array, got dtype {a.dtype}")
    if shape is not None and a.shape != shape:
        raise ContractViolation(f"{name} must have shape {shape}, got {a.shape}")
    return a.astype(np.float64, copy=False)


def integer(x, name: str) -> int:
    """``x`` as a Python int if it is an integer by :func:`operator.index`,
    else :class:`ContractViolation`; a bool is refused."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ContractViolation(f"{name} must be an integer, got {x!r}")


def seed64(x, name: str) -> int:
    """``x`` as an :func:`integer` in [0, 2^64), else
    :class:`ContractViolation`: no two seeds alias."""
    x = integer(x, name)
    if not 0 <= x < 1 << 64:
        raise ContractViolation(f"{name} must be in [0, 2^64), got {x}")
    return x
