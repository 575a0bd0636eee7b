"""Argument validation helpers with consistent error messages."""

from __future__ import annotations

import numpy as np


def check_probability(value: float, name: str, *, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in [0, 1] (or (0, 1) if not inclusive)."""
    value = float(value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 (NaN is rejected)."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_int(value: int, name: str) -> int:
    """Validate that ``value`` is an integer (bools are rejected).

    Accepts Python and numpy integers; rejects floats even when integral
    (``2.0``), so silently truncating counts can never slip through, and
    rejects booleans, which *are* ints in Python but are never a sensible
    retry/redundancy count.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a strictly positive integer."""
    check_int(value, name)
    check_positive(value, name)
    return int(value)


def check_non_negative_int(value: int, name: str) -> int:
    """Validate that ``value`` is a non-negative integer."""
    check_int(value, name)
    check_non_negative(value, name)
    return int(value)


def check_matrix_2d(array: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``array`` is a 2-D numpy array and return it as float64."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {array.shape}")
    return array


def check_vector_1d(array: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``array`` is a 1-D numpy array and return it as float64."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {array.shape}")
    return array
