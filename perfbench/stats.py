"""Statistics the harness reports: tail counts, hit rate, relative latency, self time.

Pure Python on plain numbers, so the self-tests in ``test_harness.py``
exercise exactly the arithmetic behind every reported figure.  Percentiles
come from ``numpy.percentile`` with its default (linear) method.
"""

from __future__ import annotations

import statistics
from typing import Hashable, Sequence


def batches_beyond(
    latencies: Sequence[float], batch_of: Sequence[Hashable], threshold: float
) -> int:
    """Distinct batches holding at least one latency above ``threshold``.

    Queries of one batch resolve together, so their latencies are one
    sample, not many: a tail percentile is only supported when enough
    *batches* lie beyond it.
    """
    if len(latencies) != len(batch_of):
        raise ValueError("one batch id per latency is required")
    return len({b for value, b in zip(latencies, batch_of) if value > threshold})


def hit_rate(hits: int, submitted: int) -> float:
    """Share of submitted queries that found their target.

    The denominator is every submission, so a rejected or unanswered query
    counts as a miss rather than leaving the sample.
    """
    if submitted <= 0:
        raise ValueError("hit rate needs at least one submitted query")
    if not 0 <= hits <= submitted:
        raise ValueError(f"hits {hits} outside [0, {submitted}]")
    return hits / submitted


def relative_latencies(
    latencies: Sequence[float],
    batch_of: Sequence[int],
    probe: Sequence[float],
    half_width: int = 2,
) -> list[float]:
    """Each latency over the probe's wall time beside its batch.

    ``probe[b]`` is the probe run timed right after batch ``b``.  The
    denominator for a latency of batch ``b`` is the median of
    ``probe[b - half_width : b + half_width + 1]`` (cut at the ends), so one
    probe run hit by an interrupt does not skew its batch.
    """
    if len(latencies) != len(batch_of):
        raise ValueError("one batch id per latency is required")
    return [
        value / statistics.median(probe[max(0, b - half_width) : b + half_width + 1])
        for value, b in zip(latencies, batch_of)
    ]


def self_times(spans: Sequence[tuple[int, int, int]]) -> list[int]:
    """Self time of each span: its duration minus its children's durations.

    ``spans`` holds ``(start, end, parent)`` triples, ``parent`` being the
    index of the enclosing span or ``-1``.  Spans come from one call stack,
    so the children of a span run one after another inside it.
    """
    result = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result
