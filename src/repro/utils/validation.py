"""Argument validation helpers with consistent error messages."""

from __future__ import annotations

from typing import Iterable

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


def check_peer_ids(ids: Iterable[int], n_nodes: int, name: str) -> list[int]:
    """Validate that every id in ``ids`` names a node of an ``n_nodes`` overlay."""
    peers = [int(p) for p in ids]
    for peer in peers:
        if not 0 <= peer < n_nodes:
            raise ValueError(f"{name} peer {peer} out of range [0, {n_nodes})")
    return peers

