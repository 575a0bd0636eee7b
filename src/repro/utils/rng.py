"""Deterministic randomness helpers.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` (fresh entropy).  Centralizing the
coercion here keeps experiment drivers reproducible: a single scenario seed is
split into independent child generators with :func:`spawn_rngs` so that, e.g.,
document placement and query sampling never share a stream.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

RngLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def check_seed(seed: RngLike) -> None:
    """Raise ``TypeError`` unless ``seed`` is an :data:`RngLike`.

    Only the type is read: a generator passed here draws nothing.
    """
    if seed is None or isinstance(
        seed, (int, np.integer, np.random.SeedSequence, np.random.Generator)
    ):
        return
    raise TypeError(
        f"seed must be None, an int, a SeedSequence or a Generator, got {type(seed)!r}"
    )


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged, so components can share
    a stream when the caller wants them to.
    """
    check_seed(seed)
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: RngLike, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Uses :class:`numpy.random.SeedSequence` spawning, so the children are
    independent of each other *and* of the parent stream.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    elif isinstance(seed, np.random.Generator):
        # Derive a seed sequence from the generator's own stream.
        seq = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def derive_rng(seed: RngLike, *keys: Union[int, str]) -> np.random.Generator:
    """Derive a named child generator from ``seed``.

    ``keys`` identify the consumer (e.g. ``derive_rng(seed, "placement", 3)``);
    the same seed and keys always produce the same stream, while different keys
    produce independent streams.
    """
    material: list[int] = []
    for key in keys:
        if isinstance(key, str):
            material.extend(key.encode("utf-8"))
        elif isinstance(key, (int, np.integer)):
            material.append(int(key) & 0xFFFFFFFF)
        else:
            raise TypeError(f"keys must be int or str, got {type(key)!r}")
    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**63 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        base = seed.entropy if isinstance(seed.entropy, int) else 0
    elif seed is None:
        base = np.random.SeedSequence().entropy  # fresh entropy
    else:
        base = int(seed)
    seq = np.random.SeedSequence(entropy=base, spawn_key=tuple(material))
    return np.random.default_rng(seq)
