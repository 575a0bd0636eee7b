"""Scenario configurations for the paper's two experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils import (
    check_non_negative_int,
    check_positive_int,
    check_probability,
)


@dataclass(frozen=True)
class AccuracyScenario:
    """Configuration of the hit-accuracy experiment (paper §V-C, Fig. 3).

    One scenario covers one document count ``n_documents`` (a Fig. 3 panel);
    accuracy is measured at every query–gold distance ``0..max_distance`` and
    every teleport probability in ``alphas``, with ``iterations`` independent
    document placements.
    """

    n_documents: int
    alphas: tuple[float, ...] = (0.1, 0.5, 0.9)
    max_distance: int = 8
    ttl: int = 50
    k: int = 1
    fanout: int = 1
    iterations: int = 100
    weighting: str = "sum"
    placement: str = "uniform"
    correlation_mixing: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.n_documents, "n_documents")
        check_positive_int(self.ttl, "ttl")
        check_positive_int(self.k, "k")
        check_positive_int(self.fanout, "fanout")
        check_positive_int(self.iterations, "iterations")
        check_non_negative_int(self.max_distance, "max_distance")
        if not self.alphas:
            raise ValueError("alphas must be non-empty")
        for alpha in self.alphas:
            check_probability(alpha, "alpha", inclusive=False)
        if self.placement not in ("uniform", "correlated"):
            raise ValueError(
                f"placement must be 'uniform' or 'correlated', got {self.placement!r}"
            )
        check_probability(self.correlation_mixing, "correlation_mixing")


@dataclass(frozen=True)
class HopCountScenario:
    """Configuration of the hop-count experiment (paper §V-D, Table I).

    The paper uses alpha = 0.5, 500 iterations of 10 uniformly-placed queries
    (5,000 samples) per document count, TTL 50.
    """

    n_documents: int
    alpha: float = 0.5
    iterations: int = 500
    queries_per_iteration: int = 10
    ttl: int = 50
    k: int = 1
    fanout: int = 1
    weighting: str = "sum"
    placement: str = "uniform"
    correlation_mixing: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.n_documents, "n_documents")
        check_probability(self.alpha, "alpha", inclusive=False)
        check_positive_int(self.iterations, "iterations")
        check_positive_int(self.queries_per_iteration, "queries_per_iteration")
        check_positive_int(self.ttl, "ttl")
        check_positive_int(self.k, "k")
        check_positive_int(self.fanout, "fanout")
        if self.placement not in ("uniform", "correlated"):
            raise ValueError(
                f"placement must be 'uniform' or 'correlated', got {self.placement!r}"
            )
        check_probability(self.correlation_mixing, "correlation_mixing")

    @property
    def total_samples(self) -> int:
        return self.iterations * self.queries_per_iteration
