"""The four workloads: seeded inputs, timed set-up and the measured phase.

Serving workloads (``serve_steady``, ``serve_faulted``, ``churn_serve``)
share one corpus and one closed loop: 8 clients each submit one query per
round, then the harness drains the service, so one round is one
micro-batch on the service's virtual event clock.  Every input (overlay,
documents, queries, start nodes, fault plan, churn events, added-document
vectors, the service seed) is generated from the workload seed before any
timed phase; only the timings come from the wall clock.

``paper_fig3`` runs the paper's Fig. 3d panel (M = 10 000 documents) through
:func:`repro.experiments.fig3_accuracy.run_panel` on the repository's scaled
experiment environment.

A run makes :data:`PASSES` passes, each with its own load stream drawn
from the seed and its own set-up, then replays the first stream on a fresh
set-up (serving: its opening :data:`REPLAY_ROUNDS` rounds; paper_fig3: the
whole panel).  Every round leaves a checkpoint: a digest chained over all
responses so far plus the pass's running outcome counts (submitted, hits,
OK, degraded, rejected, hops, refresh decisions, SLO violations, breaker
trips, quarantined peers).  The replay must reproduce the first pass's
checkpoints exactly: that is the determinism gate.

After each round (paper_fig3: each iteration) the pass times one run of
the reference :class:`~perfbench.probe.Probe`, outside every latency
window, so each batch's latency can be read against the host's speed at
that moment.
"""

from __future__ import annotations

import gc
import hashlib
import math
import warnings
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

import repro.churn.stream as churn_stream
from repro.churn import ChurnEvent, ChurnRates, ChurnStream, RefreshSLO
from repro.core.backends import SparseDiffusionBackend
from repro.core.engine import ResilienceConfig, WalkConfig
from repro.core.search import DiffusionSearchNetwork
from repro.experiments import common as experiments_common
from repro.experiments.fig3_accuracy import run_panel
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.generators import community_cycle_adjacency
from repro.gsp.filters import PrunedMassWarning
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.serving import (
    BreakerConfig,
    MicroBatchConfig,
    Outcome,
    PeerCircuitBreaker,
    QueryRequest,
    QueryService,
    ServingConfig,
    StalenessConfig,
)
from repro.simulation.runner import IterationSampler

from perfbench.probe import Probe
from perfbench.tracer import Tracer

# Corpus and load shared by the serving workloads.
N_NODES = 50_000
DEGREE = 8
N_COMMUNITIES = 16
CROSS_FRACTION = 0.05
N_DOCS = 1_000
DIM = 64
ALPHA = 0.5
TOL = 1e-8
EPSILON = 1e-4
QUERY_NOISE = 0.25
START_HOPS = (1, 3)
CLIENTS = 8
WALK = WalkConfig(ttl=50, k=10)

# serve_faulted
CRASH_FRACTION = 0.10
DROP_PROBABILITY = 0.05
MAX_RETRIES = 2

# churn_serve: writes applied before each round, and a staleness target
# that about one batch in five breaches.  The mix is the move-heavy one of
# examples/churn_slo.py and benchmarks/test_bench_churn_slo.py.
WRITES_PER_ROUND = 4
CHURN_RATES = ChurnRates(
    doc_add=1.0, doc_move=6.0, doc_delete=1.0, node_leave=0.1, node_join=0.1
)
STALENESS_TARGET = 200.0

# paper_fig3: the Fig. 3d panel.  The scaled environment (1 200-node
# Facebook-like graph) builds in about 2 s on a 2-core host; the
# paper-scale one takes about 9 s, and three set-ups a run at that size
# would not fit the benchmark's time budget.
FIG3_DOCUMENTS = 10_000
FIG3_FULL = False

# Run shape.  Each pass measures at least MIN_MEASURED rounds after one
# warm-up round, so a run's two passes hold enough batches for ten to lie
# beyond p90.
# The replay covers several refreshes on churn_serve and several breaker
# trips on serve_faulted.
PASSES = 2
WARMUP_ROUNDS = 1
MIN_MEASURED = 51
REPLAY_ROUNDS = 16
SCORE_TOLERANCE = 1e-9

# Sub-seed tags: the corpus derives from (seed, tag), a pass's load and
# paper_fig3 panel from (seed, stream, tag).
_OVERLAY, _DOCS, _QUERIES, _FAULTS, _CHURN, _ADDS, _SERVICE, _PANEL = range(8)


def derive_seed(seed: int, *keys: int) -> int:
    """A 63-bit integer seed for (seed, keys); never ``None``."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(2, np.uint32)
    return int(state[0]) << 31 | int(state[1]) >> 1


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def panel_seed(seed: int, stream: int) -> int:
    """The ``run_panel`` seed of one paper_fig3 pass."""
    return derive_seed(seed, stream, _PANEL)


# ------------------------------------------------------------------ inputs


@dataclass
class Query:
    qid: int
    target: str
    embedding: np.ndarray
    start: int


@dataclass
class Round:
    writes: list[ChurnEvent]
    queries: list[Query]


@dataclass
class Stream:
    """One pass's load: rounds, fault plan, added vectors, service seed."""

    rounds: list[Round]
    plan: FaultPlan | None
    add_vectors: dict[str, np.ndarray]
    service_seed: int


@dataclass
class Corpus:
    indptr: np.ndarray
    indices: np.ndarray
    doc_ids: list[str]
    vectors: np.ndarray
    nodes: np.ndarray


def unit_rows(rng: np.random.Generator, count: int) -> np.ndarray:
    rows = rng.standard_normal((count, DIM))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def neighbors_of(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Concatenated CSR rows of ``nodes``."""
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return indices[offsets + np.arange(int(lengths.sum()))]


def ring(indptr: np.ndarray, indices: np.ndarray, source: int, hops: tuple[int, int]) -> np.ndarray:
    """Sorted nodes whose hop distance from ``source`` lies in ``hops``."""
    lo, hi = hops
    seen = np.array([source], dtype=np.int64)
    frontier = seen
    found = []
    for depth in range(1, hi + 1):
        frontier = np.setdiff1d(neighbors_of(indptr, indices, frontier), seen)
        seen = np.union1d(seen, frontier)
        if depth >= lo:
            found.append(frontier)
    return np.concatenate(found)


def make_corpus(seed: int) -> Corpus:
    overlay = community_cycle_adjacency(
        N_NODES,
        DEGREE,
        n_communities=N_COMMUNITIES,
        cross_fraction=CROSS_FRACTION,
        seed=derive_rng(seed, _OVERLAY),
    )
    rng = derive_rng(seed, _DOCS)
    return Corpus(
        indptr=overlay.indptr,
        indices=overlay.indices,
        doc_ids=[f"doc-{i}" for i in range(N_DOCS)],
        vectors=unit_rows(rng, N_DOCS),
        nodes=rng.integers(0, N_NODES, size=N_DOCS),
    )


def make_stream(
    corpus: Corpus, seed: int, stream: int, n_rounds: int, *, faults: bool, churn: bool
) -> Stream:
    """Pre-generate every round's writes and queries for one pass."""
    placement = dict(zip(corpus.doc_ids, corpus.nodes.tolist()))
    vectors = dict(zip(corpus.doc_ids, corpus.vectors))
    plan = None
    crashed: frozenset[int] = frozenset()
    if faults:
        plan = FaultPlan.generate(
            N_NODES,
            crash_fraction=CRASH_FRACTION,
            drop_probability=DROP_PROBABILITY,
            seed=derive_seed(seed, stream, _FAULTS),
        )
        crashed = plan.crashed_nodes(0.0)
    events: list[ChurnEvent] = []
    if churn:
        events = ChurnStream(
            N_NODES,
            CHURN_RATES,
            initial_placement=placement,
            seed=derive_seed(seed, stream, _CHURN),
        ).events(n=WRITES_PER_ROUND * n_rounds)
    add_rng = derive_rng(seed, stream, _ADDS)
    query_rng = derive_rng(seed, stream, _QUERIES)
    add_vectors: dict[str, np.ndarray] = {}
    rounds = []
    for r in range(n_rounds):
        writes = events[r * WRITES_PER_ROUND : (r + 1) * WRITES_PER_ROUND]
        for event in writes:
            mirror_event(placement, event)
            if event.kind == "doc_add":
                vector = unit_rows(add_rng, 1)[0]
                add_vectors[event.doc_id] = vectors[event.doc_id] = vector
        present = list(placement)
        queries = []
        for c in range(CLIENTS):
            target = present[int(query_rng.integers(len(present)))]
            noisy = vectors[target] + QUERY_NOISE * query_rng.standard_normal(DIM)
            candidates = ring(corpus.indptr, corpus.indices, placement[target], START_HOPS)
            if crashed:
                live = candidates[~np.isin(candidates, list(crashed))]
                candidates = live if live.size else candidates
            start = int(candidates[int(query_rng.integers(candidates.size))])
            queries.append(
                Query(r * CLIENTS + c, target, noisy / np.linalg.norm(noisy), start)
            )
        rounds.append(Round(writes, queries))
    return Stream(rounds, plan, add_vectors, derive_seed(seed, stream, _SERVICE))


def mirror_event(placement: dict[str, int], event: ChurnEvent) -> None:
    """Track document locations the way ``apply_churn_event`` changes them."""
    if event.kind in ("doc_add", "doc_move"):
        placement[event.doc_id] = event.node
    elif event.kind == "doc_delete":
        del placement[event.doc_id]
    elif event.kind == "node_leave":
        for doc_id in [d for d, v in placement.items() if v == event.node]:
            del placement[doc_id]


# ----------------------------------------------------------------- results


@dataclass
class PassResult:
    """What one pass measured and produced."""

    setup_s: float
    phase_ns: int = 0  # wall time of the measured rounds / iterations
    latencies_ns: list[int] = field(default_factory=list)
    batch_of: list[int] = field(default_factory=list)  # round of each latency
    # Wall time of the probe run right after each round / iteration.
    probe_ns: list[int] = field(default_factory=list)
    batches: int = 0
    write_ns: list[int] = field(default_factory=list)
    submitted: int = 0
    answered_measured: int = 0
    hits: int = 0
    ok: int = 0
    degraded: int = 0
    rejected: int = 0
    hops: int = 0
    writes: int = 0
    decisions: dict[str, int] = field(default_factory=dict)
    # One (digest, outcome counts) per round, or one for a whole paper_fig3
    # panel; a replay must reproduce them.
    checkpoints: list[tuple[str, tuple]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    # Public objects of a traced serving pass, for the per-layer report.
    context: dict[str, Any] = field(default_factory=dict)


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# ----------------------------------------------------------------- serving


@dataclass(frozen=True)
class ServingSpec:
    faults: bool
    churn: bool
    # Wall time of one round on a 2-core host; sizes a run from --seconds.
    nominal_round_s: float


SERVING = {
    "serve_steady": ServingSpec(faults=False, churn=False, nominal_round_s=0.06),
    "serve_faulted": ServingSpec(faults=True, churn=False, nominal_round_s=0.2),
    "churn_serve": ServingSpec(faults=False, churn=True, nominal_round_s=0.3),
}
# Wall time of one paper_fig3 iteration on a 2-core host.
FIG3_NOMINAL_ITERATION_S = 0.08


def service_config(spec: ServingSpec, backend: SparseDiffusionBackend) -> ServingConfig:
    return ServingConfig(
        walk=WALK,
        batch=MicroBatchConfig(max_batch=CLIENTS),
        resilience=ResilienceConfig(max_retries=MAX_RETRIES) if spec.faults else None,
        staleness=StalenessConfig(
            method=backend,
            tol=TOL,
            slo=RefreshSLO(staleness_target=STALENESS_TARGET) if spec.churn else None,
        ),
    )


def serving_pass(
    spec: ServingSpec,
    corpus: Corpus,
    stream: Stream,
    probe: Probe,
    *,
    n_rounds: int | None = None,
    tracer: Tracer | None = None,
) -> PassResult:
    """Set up the program from the inputs, then drive the closed loop."""
    rounds = stream.rounds if n_rounds is None else stream.rounds[:n_rounds]
    done: list[tuple[int, Any]] = []
    started = perf_counter_ns()
    adjacency = CompressedAdjacency(corpus.indptr, corpus.indices)
    network = DiffusionSearchNetwork(adjacency, DIM, alpha=ALPHA)
    network.place_documents(
        zip(corpus.doc_ids, corpus.vectors, corpus.nodes.tolist())
    )
    backend = SparseDiffusionBackend(epsilon=EPSILON)
    network.diffuse(method=backend, tol=TOL)
    faults = FaultInjector(stream.plan) if stream.plan is not None else None
    breaker = PeerCircuitBreaker(BreakerConfig()) if faults is not None else None
    service = QueryService.from_network(
        network,
        config=service_config(spec, backend),
        faults=faults,
        breaker=breaker,
        seed=stream.service_seed,
        on_response=lambda response: done.append((perf_counter_ns(), response)),
    )
    result = PassResult(setup_s=(perf_counter_ns() - started) / 1e9)

    embedding_of = stream.add_vectors.__getitem__
    for index, rnd in enumerate(rounds):
        measured = index >= WARMUP_ROUNDS
        if tracer is not None:
            tracer.batch = index
            tracer.phase = "serve"
        done.clear()
        submitted_at = {}
        round_start = perf_counter_ns()
        for event in rnd.writes:
            write_start = perf_counter_ns()
            # Looked up on the module each time so the traced run's shim applies.
            churn_stream.apply_churn_event(network, event, embedding_of=embedding_of)
            if measured:
                result.write_ns.append(perf_counter_ns() - write_start)
        for query in rnd.queries:
            submitted_at[query.qid] = perf_counter_ns()
            service.submit(
                QueryRequest(
                    query_id=query.qid,
                    embedding=query.embedding,
                    start_node=query.start,
                )
            )
        service.drain()
        round_end = perf_counter_ns()
        if tracer is not None:
            tracer.phase = "check"
        result.probe_ns.append(probe.run())
        result.writes += len(rnd.writes)
        _check_round(result, network, rnd, done, index)
        if measured:
            result.phase_ns += round_end - round_start
            for resolved_at, response in done:
                if response.outcome is not Outcome.REJECTED:
                    result.answered_measured += 1
                result.latencies_ns.append(resolved_at - submitted_at[response.query_id])
                result.batch_of.append(index)
        if service.refresh_scheduler is not None:
            result.decisions = dict(service.refresh_scheduler.decisions)
        result.checkpoints.append(_checkpoint(result, service, breaker, done))
    result.batches = service.metrics.batches
    if result.batches != len(rounds):
        result.errors.append(
            f"{result.batches} batches for {len(rounds)} rounds; "
            "a round must be exactly one batch"
        )
    result.context = {
        "service": service,
        "network": network,
        "faults": faults,
        "breaker": breaker,
    }
    return result


def _checkpoint(
    result: PassResult,
    service: QueryService,
    breaker: PeerCircuitBreaker | None,
    done: list[tuple[int, Any]],
) -> tuple[str, tuple]:
    """The round's digest, chained to the last one, and running counts."""
    scheduler = service.refresh_scheduler
    counts = (
        ("submitted", result.submitted),
        ("hits", result.hits),
        ("ok", result.ok),
        ("degraded", result.degraded),
        ("rejected", result.rejected),
        ("hops", result.hops),
        *sorted(result.decisions.items()),
        ("slo_violations", scheduler.slo_violations if scheduler is not None else 0),
        ("breaker_trips", breaker.trips if breaker is not None else 0),
        (
            "quarantined",
            len(breaker.quarantined(service.queue.now)) if breaker is not None else 0,
        ),
    )
    previous = result.checkpoints[-1][0] if result.checkpoints else ""
    digest = _digest(previous, [_response_key(response) for _, response in done], counts)
    return digest, counts


def _response_key(response: Any) -> tuple:
    key: tuple = (
        response.query_id,
        response.outcome.value,
        response.stale_served,
        response.staleness_bound,
    )
    walk = response.result
    if walk is not None:
        key += (
            tuple(doc.doc_id for doc in walk.results),
            len(walk.visits),
            walk.retries,
            walk.rerouted,
            walk.walkers_lost,
        )
    return key


def _check_round(
    result: PassResult,
    network: DiffusionSearchNetwork,
    rnd: Round,
    done: list[tuple[int, Any]],
    index: int,
) -> None:
    """Resolution, document and score checks for one round's responses."""
    queries = {query.qid: query for query in rnd.queries}
    seen: dict[int, int] = {}
    for _, response in done:
        seen[response.query_id] = seen.get(response.query_id, 0) + 1
    if seen != dict.fromkeys(queries, 1):
        result.errors.append(
            f"round {index}: responses {sorted(seen.items())} do not resolve "
            f"each of {len(queries)} submissions exactly once"
        )
    for _, response in done:
        query = queries.get(response.query_id)
        if query is None:
            continue
        result.submitted += 1
        if response.outcome is Outcome.REJECTED:
            result.rejected += 1
            continue
        if response.outcome is Outcome.DEGRADED:
            result.degraded += 1
        else:
            result.ok += 1
        walk = response.result
        result.hops += len(walk.visits)
        if walk.found(query.target):
            result.hits += 1
        for doc in walk.results:
            try:
                node = network.location_of(doc.doc_id)
            except KeyError:
                result.errors.append(
                    f"round {index}: query {query.qid} returned {doc.doc_id!r}, "
                    "which is not stored"
                )
                continue
            if node != doc.node:
                result.errors.append(
                    f"round {index}: {doc.doc_id!r} reported at node {doc.node}, "
                    f"stored at {node}"
                )
                continue
            expected = float(network.stores[node].embedding_of(doc.doc_id) @ query.embedding)
            if abs(expected - doc.score) > SCORE_TOLERANCE:
                result.errors.append(
                    f"round {index}: {doc.doc_id!r} score {doc.score!r} != "
                    f"query·embedding {expected!r}"
                )


# -------------------------------------------------------------- paper_fig3


def fig3_pass(
    panel_seed: int, iterations: int, probe: Probe, *, tracer: Tracer | None = None
) -> PassResult:
    """Build the experiment environment, then run one Fig. 3d panel.

    Iteration latencies come from an entry stamp on
    ``IterationSampler.sample``, which starts every iteration; the panel
    itself is a single call.  The stamp also ends the previous iteration
    and runs the probe between the two, so no latency holds a probe run.
    """
    experiments_common.get_environment.cache_clear()
    gc.collect()
    started = perf_counter_ns()
    # Positional, like run_panel's own call, so it fills the same cache slot.
    experiments_common.get_environment(FIG3_FULL)
    result = PassResult(setup_s=(perf_counter_ns() - started) / 1e9)
    stamps: list[int] = []
    ends: list[int] = []
    sample = vars(IterationSampler)["sample"]

    def stamped(*args, **kwargs):
        if stamps:
            ends.append(perf_counter_ns())
            result.probe_ns.append(probe.run())
        stamps.append(perf_counter_ns())
        return sample(*args, **kwargs)

    IterationSampler.sample = stamped
    if tracer is not None:
        tracer.phase = "serve"
    try:
        started = perf_counter_ns()
        grid = run_panel(
            FIG3_DOCUMENTS, full=FIG3_FULL, iterations=iterations, seed=panel_seed
        )
        finished = perf_counter_ns()
    finally:
        IterationSampler.sample = sample
    ends.append(finished)
    result.probe_ns.append(probe.run())
    for index in range(WARMUP_ROUNDS, len(stamps)):
        result.latencies_ns.append(ends[index] - stamps[index])
        result.batch_of.append(index)
    result.phase_ns = finished - started - sum(result.probe_ns[:-1])
    result.batches = len(stamps)
    result.submitted = result.answered_measured = sum(grid.samples.values())
    result.ok = result.submitted
    result.hits = sum(grid.successes.values())
    result.checkpoints.append(
        (
            _digest(sorted(grid.samples.items()), sorted(grid.successes.items())),
            (("submitted", result.submitted), ("hits", result.hits)),
        )
    )
    _check_grid(result, grid, iterations)
    return result


def _check_grid(result: PassResult, grid: Any, iterations: int) -> None:
    """Every reachable (alpha, distance) cell holds one walk per start."""
    if len(grid.alphas) != 3 or result.batches != iterations:
        result.errors.append(
            f"panel ran {result.batches} iterations over alphas {grid.alphas}"
        )
    reached = [
        d for d in range(grid.max_distance + 1)
        if any(grid.sample_count(a, d) for a in grid.alphas)
    ]
    if reached != list(range(len(reached))) or not reached:
        result.errors.append(f"distances reached {reached} are not 0..k")
    for distance in reached:
        counts = {grid.sample_count(alpha, distance) for alpha in grid.alphas}
        if len(counts) != 1 or 0 in counts:
            result.errors.append(
                f"distance {distance}: per-alpha samples {sorted(counts)} differ or are empty"
            )
    if grid.sample_count(grid.alphas[0], 0) != iterations:
        result.errors.append("distance 0 must hold one walk per iteration")
    for key, hits in grid.successes.items():
        if hits > grid.samples.get(key, 0):
            result.errors.append(f"cell {key}: {hits} hits exceed samples")


# --------------------------------------------------------------- run shape


def measured_rounds(seconds: int, nominal_round_s: float) -> int:
    """Measured rounds per pass: cover ``seconds`` and the p90 tail."""
    return max(MIN_MEASURED, math.ceil(seconds / nominal_round_s / PASSES))


def pruned_mass_is_error(fn: Callable[[], PassResult]) -> PassResult:
    """Run ``fn`` with ``PrunedMassWarning`` raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrunedMassWarning)
        return fn()
