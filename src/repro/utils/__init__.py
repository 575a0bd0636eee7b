"""Shared utilities: seeded randomness, validation and small helpers."""

from repro.utils.rng import ensure_rng, spawn_rngs, derive_rng
from repro.utils.validation import (
    check_probability,
    check_positive,
    check_non_negative,
    check_int,
    check_positive_int,
    check_non_negative_int,
    check_peer_ids,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "derive_rng",
    "check_probability",
    "check_positive",
    "check_non_negative",
    "check_int",
    "check_positive_int",
    "check_non_negative_int",
    "check_peer_ids",
]
