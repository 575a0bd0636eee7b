"""Per-layer view of a traced pass: where the shims go, what they report.

Span names are ``<layer>/<call>``.  Shims sit on the public functions each
layer exposes; where a caller imports a function by name
(``repro.serving.service`` and ``repro.simulation.runner`` import
``run_queries``/``run_query``), the name is patched in that caller.
Per-layer figures cover the measured phase (``serve``), except the
``diffusion`` layer, which also counts the set-up warm-up because diffusion
is most of every serving set-up.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

import repro.churn.stream as churn_stream
import repro.serving.service as service_module
import repro.simulation.runner as runner_module
from repro.churn.scheduler import RefreshScheduler
from repro.churn.staleness import StalenessTracker
from repro.core.backends import SparseDiffusionBackend
from repro.core.forwarding import EmbeddingGuidedPolicy
from repro.core.search import DiffusionSearchNetwork
from repro.gsp.filters import PersonalizedPageRank
from repro.gsp.normalization import transition_matrix
from repro.kernels import dispatch
from repro.retrieval.vector_store import DocumentStore
from repro.runtime.events import EventQueue
from repro.runtime.faults import FaultInjector
from repro.serving import QueryService
from repro.simulation.runner import IterationSampler

from perfbench.tracer import END, NAME, PHASE, START, Tracer

KERNELS = (
    "masked_segment_argmax",
    "sparse_key_lookup",
    "csr_row_peaks",
    "scatter_add_weighted_rows",
)

# Every per-layer metric: (unit, which direction is better), in report order.
PER_LAYER = {
    "serving.batches": ("count", "higher"),
    "serving.batch_size_mean": ("count", "higher"),
    "serving.self_ms_per_batch": ("ms", "lower"),
    "serving.stale_served_share": ("share", "lower"),
    "serving.rejected_share": ("share", "lower"),
    "serving.breaker_trips": ("count", "lower"),
    "serving.quarantined_peers": ("count", "lower"),
    "core.batch.calls": ("count", "lower"),
    "core.batch.self_ms": ("ms", "lower"),
    "core.batch.walks": ("count", "higher"),
    "core.batch.hops": ("count", "lower"),
    "core.batch.us_per_hop": ("us", "lower"),
    "core.batch.unique_node_share": ("share", "higher"),
    "core.engine.calls": ("count", "lower"),
    "core.engine.self_ms": ("ms", "lower"),
    "core.engine.hops": ("count", "lower"),
    "core.engine.retries": ("count", "lower"),
    "core.engine.reroutes": ("count", "lower"),
    "core.engine.walkers_lost": ("count", "lower"),
    "core.engine.degraded_share": ("share", "lower"),
    "core.forwarding.calls": ("count", "lower"),
    "core.forwarding.ms": ("ms", "lower"),
    "core.forwarding.candidates": ("count", "lower"),
    "retrieval.top_k_calls": ("count", "lower"),
    "retrieval.ms": ("ms", "lower"),
    "core.search.writes": ("count", "higher"),
    "core.search.write_us_p50": ("us", "lower"),
    "core.search.write_us_p99": ("us", "lower"),
    "core.search.diffuse_full": ("count", "lower"),
    "core.search.diffuse_incremental": ("count", "higher"),
    "core.search.diffuse_ms": ("ms", "lower"),
    "diffusion.sweeps": ("count", "lower"),
    "diffusion.edge_ops": ("count", "lower"),
    "diffusion.ms_per_sweep": ("ms", "lower"),
    "diffusion.residual_l1": ("l1", "lower"),
    "diffusion.csr_density": ("share", "lower"),
    "churn.decisions.defer": ("count", "higher"),
    "churn.decisions.incremental": ("count", "higher"),
    "churn.decisions.full": ("count", "lower"),
    "churn.slo_violations": ("count", "lower"),
    "churn.ms": ("ms", "lower"),
    "churn.bound_at_serve_p50": ("l1", "lower"),
    "churn.dirty_nodes_per_refresh": ("count", "lower"),
    "churn.true_error_l1": ("l1", "lower"),
    "churn.bound_over_true_error": ("ratio", "higher"),
    "runtime.events": ("count", "lower"),
    "runtime.fault_checks": ("count", "lower"),
    "runtime.drops": ("count", "lower"),
    **{f"kernels.{name}.calls": ("count", "lower") for name in KERNELS},
    **{f"kernels.{name}.ms": ("ms", "lower") for name in KERNELS},
    "simulation.sample_ms": ("ms", "lower"),
    "simulation.diffuse_ms": ("ms", "lower"),
    "simulation.walk_ms": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.serve_s": ("s", "lower"),
    "trace.untraced_serve_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


# ------------------------------------------------------------------ shims


def _count_walks(tracer: Tracer, args, kwargs, results, _pre) -> None:
    counters = tracer.counters
    counters["core.batch.walks"] += len(results)
    for result in results:
        counters["core.batch.hops"] += len(result.visits)
        counters["core.batch.unique_nodes"] += result.unique_nodes_visited


def _count_walk(tracer: Tracer, args, kwargs, result, _pre) -> None:
    counters = tracer.counters
    counters["core.engine.hops"] += len(result.visits)
    counters["core.engine.retries"] += result.retries
    counters["core.engine.reroutes"] += result.rerouted
    counters["core.engine.walkers_lost"] += result.walkers_lost
    counters["core.engine.degraded"] += int(result.degraded)


def _count_candidates(tracer: Tracer, args, kwargs, result, _pre) -> None:
    tracer.counters["core.forwarding.candidates"] += len(args[2])


def _dirty_before(args, kwargs) -> int:
    return len(args[0].dirty_nodes)


def _count_diffuse(tracer: Tracer, args, kwargs, outcome, dirty) -> None:
    if tracer.phase != "serve":
        return
    kind = "incremental" if outcome.incremental else "full"
    tracer.counters[f"core.search.diffuse_{kind}"] += 1
    tracer.counters["churn.dirty_nodes"] += dirty


def _count_sweeps(tracer: Tracer, args, kwargs, outcome, _pre) -> None:
    counters = tracer.counters
    counters["diffusion.sweeps"] += outcome.iterations
    counters["diffusion.edge_ops"] += outcome.operations
    counters["diffusion.residual_l1"] += outcome.residual_l1
    embeddings = outcome.embeddings
    if sp.issparse(embeddings):
        rows, cols = embeddings.shape
        counters["diffusion.csr_density"] = embeddings.nnz / (rows * cols)


def install(tracer: Tracer) -> None:
    """Patch every layer boundary; undo with ``tracer.restore()``."""
    patch = tracer.patch
    patch(QueryService, "submit", "serving/submit")
    patch(QueryService, "drain", "serving/drain")
    patch(service_module, "run_queries", "core.batch/run_queries", observe=_count_walks)
    patch(
        runner_module, "run_queries", "core.batch/run_queries@simulation",
        observe=_count_walks,
    )
    patch(service_module, "run_query", "core.engine/run_query", observe=_count_walk)
    patch(EmbeddingGuidedPolicy, "select", "core.forwarding/select", observe=_count_candidates)
    patch(
        EmbeddingGuidedPolicy, "select_batch", "core.forwarding/select_batch",
        observe=_count_candidates,
    )
    patch(DocumentStore, "top_k", "retrieval/top_k")
    patch(churn_stream, "apply_churn_event", "core.search/write")
    patch(
        DiffusionSearchNetwork, "diffuse", "core.search/diffuse",
        before=_dirty_before, observe=_count_diffuse,
    )
    patch(SparseDiffusionBackend, "diffuse", "diffusion/diffuse", observe=_count_sweeps)
    patch(SparseDiffusionBackend, "refresh", "diffusion/refresh", observe=_count_sweeps)
    for name in ("tick", "decide", "commit"):
        patch(RefreshScheduler, name, f"churn/{name}")
    for name in ("set_pending", "record_refresh"):
        patch(StalenessTracker, name, f"churn/{name}")
    patch(EventQueue, "step", "runtime/step")
    patch(FaultInjector, "alive", "runtime/alive")
    patch(FaultInjector, "deliver", "runtime/deliver")
    for name in KERNELS:
        patch(dispatch, name, f"kernels/{name}")
    patch(IterationSampler, "sample", "simulation/sample")
    patch(IterationSampler, "diffuse_scores_multi", "simulation/diffuse")


# ----------------------------------------------------------------- report


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def true_l1_error(network: DiffusionSearchNetwork) -> float:
    """Entrywise L1 distance of the served embeddings from an exact solve."""
    operator = transition_matrix(network.adjacency, network.normalization)
    exact = PersonalizedPageRank(network.alpha, method="power", tol=1e-12).apply(
        operator, network.personalization()
    )
    return float(np.abs(network.embeddings - exact).sum())


def layer_metrics(
    tracer: Tracer,
    context: dict[str, Any],
    *,
    serve_s: float,
    untraced_serve_s: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced pass."""
    self_ns = tracer.self_ns()
    self_ms: dict[str, float] = {}
    total_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for span, own in zip(tracer.spans, self_ns):
        name = span[NAME]
        elapsed = span[END] - span[START]
        if span[PHASE] == "serve" or name.startswith("diffusion/"):
            layer = name.split("/")[0]
            self_ms[layer] = self_ms.get(layer, 0.0) + own / 1e6
            total_ms[name] = total_ms.get(name, 0.0) + elapsed / 1e6
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(elapsed)
    c = tracer.counters
    m: dict[str, float] = {}

    service = context.get("service")
    batches = service.metrics.batches if service is not None else 0
    m["serving.batches"] = batches
    if service is not None:
        sm = service.metrics
        m["serving.batch_size_mean"] = sm.mean_batch_size
        m["serving.stale_served_share"] = _ratio(sm.stale_served, sm.completed)
        m["serving.rejected_share"] = _ratio(sm.rejected, sm.submitted)
    else:
        m["serving.batch_size_mean"] = 0.0
        m["serving.stale_served_share"] = 0.0
        m["serving.rejected_share"] = 0.0
    m["serving.self_ms_per_batch"] = _ratio(self_ms.get("serving", 0.0), batches)
    breaker = context.get("breaker")
    queue = service.queue if service is not None else None
    m["serving.breaker_trips"] = breaker.trips if breaker is not None else 0
    m["serving.quarantined_peers"] = (
        len(breaker.quarantined(queue.now)) if breaker is not None else 0
    )

    batch_calls = calls.get("core.batch/run_queries", 0) + calls.get(
        "core.batch/run_queries@simulation", 0
    )
    m["core.batch.calls"] = batch_calls
    m["core.batch.self_ms"] = self_ms.get("core.batch", 0.0)
    m["core.batch.walks"] = c["core.batch.walks"]
    m["core.batch.hops"] = c["core.batch.hops"]
    m["core.batch.us_per_hop"] = _ratio(m["core.batch.self_ms"] * 1e3, c["core.batch.hops"])
    m["core.batch.unique_node_share"] = _ratio(c["core.batch.unique_nodes"], c["core.batch.hops"])

    engine_calls = calls.get("core.engine/run_query", 0)
    m["core.engine.calls"] = engine_calls
    m["core.engine.self_ms"] = self_ms.get("core.engine", 0.0)
    for key in ("hops", "retries", "reroutes", "walkers_lost"):
        m[f"core.engine.{key}"] = c[f"core.engine.{key}"]
    m["core.engine.degraded_share"] = _ratio(c["core.engine.degraded"], engine_calls)

    forwarding = ("core.forwarding/select", "core.forwarding/select_batch")
    m["core.forwarding.calls"] = sum(calls.get(n, 0) for n in forwarding)
    m["core.forwarding.ms"] = sum(total_ms.get(n, 0.0) for n in forwarding)
    m["core.forwarding.candidates"] = c["core.forwarding.candidates"]
    m["retrieval.top_k_calls"] = calls.get("retrieval/top_k", 0)
    m["retrieval.ms"] = total_ms.get("retrieval/top_k", 0.0)

    writes = durations.get("core.search/write", [])
    m["core.search.writes"] = len(writes)
    m["core.search.write_us_p50"] = np.percentile(writes, 50) / 1e3 if writes else 0.0
    m["core.search.write_us_p99"] = np.percentile(writes, 99) / 1e3 if writes else 0.0
    m["core.search.diffuse_full"] = c["core.search.diffuse_full"]
    m["core.search.diffuse_incremental"] = c["core.search.diffuse_incremental"]
    m["core.search.diffuse_ms"] = total_ms.get("core.search/diffuse", 0.0)

    diffusion_ms = total_ms.get("diffusion/diffuse", 0.0) + total_ms.get(
        "diffusion/refresh", 0.0
    )
    m["diffusion.sweeps"] = c["diffusion.sweeps"]
    m["diffusion.edge_ops"] = c["diffusion.edge_ops"]
    m["diffusion.ms_per_sweep"] = _ratio(diffusion_ms, c["diffusion.sweeps"])
    m["diffusion.residual_l1"] = c["diffusion.residual_l1"]
    m["diffusion.csr_density"] = c["diffusion.csr_density"]

    scheduler = service.refresh_scheduler if service is not None else None
    decisions = scheduler.decisions if scheduler is not None else {}
    for action in ("defer", "incremental", "full"):
        m[f"churn.decisions.{action}"] = decisions.get(action, 0)
    m["churn.slo_violations"] = scheduler.slo_violations if scheduler is not None else 0
    m["churn.ms"] = sum(v for k, v in total_ms.items() if k.startswith("churn/"))
    bounds = [
        r.staleness_bound
        for r in (service.responses if service is not None else [])
        if r.result is not None
    ]
    m["churn.bound_at_serve_p50"] = np.percentile(bounds, 50) if bounds else 0.0
    m["churn.dirty_nodes_per_refresh"] = _ratio(
        c["churn.dirty_nodes"],
        c["core.search.diffuse_full"] + c["core.search.diffuse_incremental"],
    )
    # Soundness check at the end of the pass: below 1 the bound under-reports.
    network = context.get("network")
    error = true_l1_error(network) if network is not None else 0.0
    m["churn.true_error_l1"] = error
    m["churn.bound_over_true_error"] = (
        network.staleness_bound() / error if error else 0.0
    )

    m["runtime.events"] = queue.dispatched if queue is not None else 0
    m["runtime.fault_checks"] = calls.get("runtime/alive", 0) + calls.get("runtime/deliver", 0)
    faults = context.get("faults")
    m["runtime.drops"] = faults.dropped if faults is not None else 0

    for name in KERNELS:
        m[f"kernels.{name}.calls"] = calls.get(f"kernels/{name}", 0)
        m[f"kernels.{name}.ms"] = total_ms.get(f"kernels/{name}", 0.0)

    m["simulation.sample_ms"] = total_ms.get("simulation/sample", 0.0)
    m["simulation.diffuse_ms"] = total_ms.get("simulation/diffuse", 0.0)
    m["simulation.walk_ms"] = total_ms.get("core.batch/run_queries@simulation", 0.0)

    m["trace.spans"] = len(tracer.spans)
    m["trace.serve_s"] = serve_s
    m["trace.untraced_serve_s"] = untraced_serve_s
    m["trace.overhead_share"] = _ratio(serve_s, untraced_serve_s) - 1.0
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: float(m[name]) for name in PER_LAYER}
