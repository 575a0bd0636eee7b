"""Experiment drivers implementing the simulation of paper Fig. 2.

Performance note: the drivers exploit the linearity of the diffusion.  The
walk only compares ``e_q · e_v`` across candidate hops, and ``E = H E0``, so
diffusing the *scalar* per-node signal ``x0 = E0 e_q`` yields exactly those
scores (``s = H x0 = E e_q``) at 1/dim of the cost of diffusing the full
embedding matrix.  ``tests/integration`` verifies the equivalence against the
full-matrix pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.batch import run_queries
from repro.core.engine import WalkConfig
from repro.core.forwarding import ForwardingPolicy, PrecomputedScorePolicy
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.communities import label_propagation_communities
from repro.graphs.metrics import bfs_distances
from repro.gsp.filters import PersonalizedPageRank
from repro.gsp.normalization import transition_matrix
from repro.retrieval.vector_store import DocumentStore
from repro.simulation.metrics import AccuracyGrid, HopStatistics, summarize_hops
from repro.simulation.placement import (
    build_stores,
    community_correlated_placement,
    uniform_placement,
)
from repro.simulation.scenario import AccuracyScenario, HopCountScenario
from repro.simulation.workload import RetrievalWorkload
from repro.utils import check_positive_int
from repro.utils.rng import spawn_rngs

PolicyFactory = Callable[[np.ndarray, CompressedAdjacency], ForwardingPolicy]


def _default_policy_factory(
    scores: np.ndarray, adjacency: CompressedAdjacency
) -> ForwardingPolicy:
    return PrecomputedScorePolicy(scores)


@dataclass
class IterationData:
    """One simulation iteration: a placed document set plus its query.

    ``stores`` is the read-only, lazily built snapshot mapping of
    :func:`~repro.simulation.placement.build_stores`: a node's store is
    sliced out of the vocabulary on its first lookup, so a walk builds only
    the stores of the nodes it visits.
    """

    query_word: str
    gold_word: str
    query_embedding: np.ndarray
    gold_node: int
    stores: Mapping[int, DocumentStore]
    relevance_signal: np.ndarray  # x0[u] = e0_u · e_q before diffusion


class IterationSampler:
    """Draws simulation iterations: query, gold + irrelevant docs, placement.

    Reused across iterations so the normalized transition matrix (and any
    community structure for correlated placement) is computed once per graph.
    """

    def __init__(
        self,
        adjacency: CompressedAdjacency,
        workload: RetrievalWorkload,
        *,
        weighting: str = "sum",
        placement: str = "uniform",
        communities: np.ndarray | None = None,
        correlation_mixing: float = 0.0,
        community_seed: int = 0,
    ) -> None:
        if weighting not in ("sum", "mean", "sqrt", "l2"):
            raise ValueError(f"unknown weighting {weighting!r}")
        if placement not in ("uniform", "correlated"):
            raise ValueError(f"unknown placement {placement!r}")
        self.adjacency = adjacency
        self.workload = workload
        self.model = workload.model
        self.dim = self.model.dim
        self._words = self.model.words
        self.weighting = weighting
        self.placement = placement
        self.correlation_mixing = float(correlation_mixing)
        self.operator = transition_matrix(adjacency, "column")
        self._filters: dict[float, PersonalizedPageRank] = {}
        self._multi_filters: dict[tuple, PersonalizedPageRank] = {}
        if placement == "correlated":
            if communities is None:
                communities = label_propagation_communities(
                    adjacency, seed=community_seed
                )
            self.communities = np.asarray(communities, dtype=np.int64)
            cluster_of = self.model.metadata.get("cluster_of")
            if cluster_of is None:
                raise ValueError(
                    "correlated placement needs the embedding model's "
                    "'cluster_of' metadata (synthetic models provide it)"
                )
            self._cluster_of = np.asarray(cluster_of, dtype=np.int64)
        else:
            self.communities = None

    # ----------------------------------------------------------------- sample

    def sample(self, n_documents: int, rng: np.random.Generator) -> IterationData:
        """Draw one iteration: 1 gold + (M−1) irrelevant docs, placed.

        Documents are drawn as vocabulary rows: the stores slice the model's
        read-only matrix lazily, and the document matrix is gathered once,
        for the relevance signal.
        """
        check_positive_int(n_documents, "n_documents")
        query_word, gold_word = self.workload.sample_case(rng)
        rows = np.empty(n_documents, dtype=np.int64)
        rows[0] = self.model.index_of(gold_word)
        rows[1:] = self.workload.sample_irrelevant_rows(rng, n_documents - 1)

        if self.placement == "uniform":
            nodes = uniform_placement(n_documents, self.adjacency.n_nodes, seed=rng)
        else:
            nodes = community_correlated_placement(
                self._cluster_of[rows],
                self.communities,
                mixing=self.correlation_mixing,
                seed=rng,
            )

        vocabulary = self.model.vectors
        stores = build_stores(self._words, vocabulary, nodes, self.dim, rows=rows)
        query_embedding = self.model.vector(query_word)
        signal = self._relevance_signal(vocabulary[rows], nodes, query_embedding)
        return IterationData(
            query_word=query_word,
            gold_word=gold_word,
            query_embedding=query_embedding,
            gold_node=int(nodes[0]),
            stores=stores,
            relevance_signal=signal,
        )

    def _relevance_signal(
        self,
        doc_embeddings: np.ndarray,
        nodes: np.ndarray,
        query_embedding: np.ndarray,
    ) -> np.ndarray:
        """Per-node ``e0_u · e_q`` under the configured weighting."""
        n = self.adjacency.n_nodes
        counts = np.bincount(nodes, minlength=n).astype(np.float64)
        occupied = counts > 0
        if self.weighting == "l2":
            # The normalized sum needs the actual per-node vector norms.
            sums = np.zeros((n, self.dim), dtype=np.float64)
            np.add.at(sums, nodes, doc_embeddings)
            norms = np.linalg.norm(sums, axis=1)
            scores = sums @ query_embedding
            with np.errstate(invalid="ignore", divide="ignore"):
                scores = np.where(norms > 0, scores / norms, 0.0)
            return scores
        doc_scores = doc_embeddings @ query_embedding
        signal = np.bincount(nodes, weights=doc_scores, minlength=n)
        if self.weighting == "mean":
            signal[occupied] /= counts[occupied]
        elif self.weighting == "sqrt":
            signal[occupied] /= np.sqrt(counts[occupied])
        return signal

    # ---------------------------------------------------------------- diffuse

    def diffuse_scores(
        self, signal: np.ndarray, alpha: float, *, tol: float = 1e-10
    ) -> np.ndarray:
        """PPR-diffuse the scalar relevance signal (eq. 6, one column)."""
        ppr = self._filters.get(alpha)
        if ppr is None:
            ppr = self._filters[alpha] = PersonalizedPageRank(alpha, tol=tol)
        return ppr.apply(self.operator, signal)

    def diffuse_scores_multi(
        self,
        signal: np.ndarray,
        alphas: Sequence[float],
        *,
        tol: float = 1e-10,
        method: str = "solve",
    ) -> np.ndarray:
        """Diffuse one scalar signal under several alphas in a single pass.

        Stacks the signal into one column per alpha and runs the whole stack
        through a single multi-alpha filter call instead of one
        :class:`PersonalizedPageRank` application per alpha.  The default
        ``method="solve"`` reuses one cached sparse LU factorization per
        alpha across iterations (the operator never changes within a
        sampler), turning the per-iteration cost into a handful of
        triangular solves — an order of magnitude cheaper than re-running
        the power iteration, and *exact*, so columns agree with
        ``diffuse_scores(signal, alphas[c])`` to within its ``tol``.  With
        ``method="power"`` every column instead freezes at its own
        convergence point and is bit-identical to the scalar path.
        """
        alphas = tuple(float(a) for a in alphas)
        if not alphas:
            raise ValueError("alphas must be non-empty")
        signal = np.asarray(signal, dtype=np.float64)
        if len(alphas) == 1 and method == "power":
            return self.diffuse_scores(signal, alphas[0], tol=tol)[:, None]
        key = (alphas, method, float(tol))
        ppr = self._multi_filters.get(key)
        if ppr is None:
            ppr = self._multi_filters[key] = PersonalizedPageRank(
                alphas, tol=tol, method=method
            )
        stacked = np.repeat(signal[:, None], len(alphas), axis=1)
        return ppr.apply(self.operator, stacked)


def sample_start_nodes(
    distances: np.ndarray,
    max_distance: int,
    rng: np.random.Generator,
) -> dict[int, int]:
    """One querying node per radius 0..max_distance (paper §V-C).

    Radii with no node at that exact distance are omitted (e.g. beyond the
    graph's eccentricity from the gold node).
    """
    starts: dict[int, int] = {}
    for radius in range(max_distance + 1):
        candidates = np.flatnonzero(distances == radius)
        if candidates.size:
            starts[radius] = int(candidates[int(rng.integers(candidates.size))])
    return starts


def run_accuracy_experiment(
    adjacency: CompressedAdjacency,
    workload: RetrievalWorkload,
    scenario: AccuracyScenario,
    *,
    communities: np.ndarray | None = None,
    policy_factory: PolicyFactory = _default_policy_factory,
) -> AccuracyGrid:
    """Reproduce one Fig. 3 panel.

    Per iteration: place 1 gold + (M−1) irrelevant documents, compute the
    diffused relevance scores for every alpha in one multi-column pass,
    sample one querying node per radius from the gold node, and launch the
    whole (alpha, radius) grid of TTL-bounded walks as a single batch through
    :func:`repro.core.batch.run_queries`.  A query succeeds when the gold
    document is its final top-1.

    The diffusion is the exact multi-column solve.  Its scores agree with a
    per-alpha power iteration to within the power tolerance (~1e-10), so a
    per-walk reference driver that diffuses per alpha could in principle
    see a different grid where two neighbors' diffused scores tie closer
    than that (not observed; the equivalence tests compare the two).
    """
    sampler = IterationSampler(
        adjacency,
        workload,
        weighting=scenario.weighting,
        placement=scenario.placement,
        communities=communities,
        correlation_mixing=scenario.correlation_mixing,
    )
    grid = AccuracyGrid(tuple(scenario.alphas), scenario.max_distance)
    config = WalkConfig(ttl=scenario.ttl, fanout=scenario.fanout, k=scenario.k)
    rngs = spawn_rngs(scenario.seed, scenario.iterations)

    for rng in rngs:
        data = sampler.sample(scenario.n_documents, rng)
        distances = bfs_distances(adjacency, data.gold_node)
        starts = sample_start_nodes(distances, scenario.max_distance, rng)
        score_rows = np.ascontiguousarray(
            sampler.diffuse_scores_multi(data.relevance_signal, scenario.alphas).T
        )
        cells: list[tuple[float, int]] = []
        batch_policies: list[ForwardingPolicy] = []
        batch_starts: list[int] = []
        for j, alpha in enumerate(scenario.alphas):
            policy = policy_factory(score_rows[j], adjacency)
            for radius, start in starts.items():
                cells.append((alpha, radius))
                batch_policies.append(policy)
                batch_starts.append(start)
        results = run_queries(
            adjacency,
            data.stores,
            batch_policies,
            data.query_embedding,
            batch_starts,
            config,
            query_ids=data.query_word,
            seed=rng,
        )
        for (alpha, radius), result in zip(cells, results):
            grid.record(alpha, radius, result.found(data.gold_word, top=1))
    return grid


def run_hop_count_experiment(
    adjacency: CompressedAdjacency,
    workload: RetrievalWorkload,
    scenario: HopCountScenario,
    *,
    communities: np.ndarray | None = None,
    policy_factory: PolicyFactory = _default_policy_factory,
) -> HopStatistics:
    """Reproduce one Table I row.

    Per iteration: place 1 gold + (M−1) irrelevant documents, then launch
    all ``queries_per_iteration`` queries from uniformly sampled nodes as
    one batch; record the hop at which successful queries reached the gold
    document.
    """
    sampler = IterationSampler(
        adjacency,
        workload,
        weighting=scenario.weighting,
        placement=scenario.placement,
        communities=communities,
        correlation_mixing=scenario.correlation_mixing,
    )
    config = WalkConfig(ttl=scenario.ttl, fanout=scenario.fanout, k=scenario.k)
    rngs = spawn_rngs(scenario.seed, scenario.iterations)

    hops_of_successes: list[int] = []
    total = 0
    for rng in rngs:
        data = sampler.sample(scenario.n_documents, rng)
        scores = sampler.diffuse_scores(data.relevance_signal, scenario.alpha)
        policy = policy_factory(scores, adjacency)
        starts = rng.integers(
            0, adjacency.n_nodes, size=scenario.queries_per_iteration
        )
        results = run_queries(
            adjacency,
            data.stores,
            policy,
            data.query_embedding,
            starts,
            config,
            query_ids=data.query_word,
            seed=rng,
        )
        for result in results:
            total += 1
            if result.found(data.gold_word, top=1):
                hops = result.hops_to(data.gold_word)
                assert hops is not None
                hops_of_successes.append(hops)
    return summarize_hops(scenario.n_documents, hops_of_successes, total)
